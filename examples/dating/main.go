// Dating: the Section VI-B interestingness study on the Pokec-like network,
// including the hypothesis-formulation cycle of Remark 3 — starting from a
// mined seed GR, varying it, and comparing the variants' nhp.
//
// Run with: go run ./examples/dating
package main

import (
	"fmt"
	"log"

	"grminer"
)

func main() {
	cfg := grminer.DefaultPokecConfig()
	cfg.Nodes = 8000
	cfg.AvgOutDegree = 12
	g := grminer.Pokec(cfg)
	schema := g.Schema()
	fmt.Printf("Pokec-like network: %d users, %d directed friendships\n\n", g.NumNodes(), g.NumEdges())

	// Step 1 — mine the entry-point GRs (the paper: minNhp = 50%, k = 300;
	// we print the head of the list).
	minSupp := g.NumEdges() / 200
	eng, err := grminer.Open(g, grminer.EngineConfig{Options: grminer.Options{
		MinSupp: minSupp, MinScore: 0.5, K: 300, DynamicFloor: true,
	}})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Mine()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top GRs by nhp (minSupp=%d):\n", minSupp)
	for i, s := range res.TopK {
		if i == 8 {
			break
		}
		fmt.Printf("  %d. %-55s nhp=%5.1f%% supp=%-6d conf=%5.1f%%\n",
			i+1, s.GR.Format(schema), 100*s.Score, s.Supp, 100*s.Conf)
	}

	wb := grminer.NewWorkbench(g)

	// Step 2 — the P5 study: does gender modulate the "looking for a sexual
	// partner -> female" tie? Vary the seed by pinning each gender.
	fmt.Println("\nhypothesis cycle 1 (the paper's P5):")
	seed, err := grminer.ParseGR(schema, "(L:Sexual Partner) -> (G:Female)")
	if err != nil {
		log.Fatal(err)
	}
	male, err := grminer.ParseGR(schema, "(G:Male, L:Sexual Partner) -> (G:Female)")
	if err != nil {
		log.Fatal(err)
	}
	female, err := grminer.ParseGR(schema, "(G:Female, L:Sexual Partner) -> (G:Male)")
	if err != nil {
		log.Fatal(err)
	}
	reports, err := wb.Compare(seed, male, female)
	if err != nil {
		log.Fatal(err)
	}
	for _, rep := range reports {
		fmt.Println("   ", rep.String(schema))
	}
	fmt.Println("    => men looking for sexual partners target women far more than the reverse.")

	// Step 3 — the P207 study: age preferences of 25-34 year olds by gender.
	fmt.Println("\nhypothesis cycle 2 (the paper's P207):")
	for _, q := range []string{
		"(G:Male, A:25-34) -> (A:18-24)",
		"(G:Female, A:25-34) -> (A:18-24)",
		"(G:Male, A:25-34) -> (G:Female, A:18-24)",
		"(G:Female, A:25-34) -> (G:Male, A:18-24)",
	} {
		rep, err := wb.QueryText(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("   ", rep.String(schema))
	}
	fmt.Println("    => men much prefer younger partners; for opposite-sex ties the gap widens.")

	// Step 4 — the P2 explanation: check the education distribution to rule
	// out data skew (the paper inspects value distributions the same way).
	fmt.Println("\ndistribution check (the paper's P2 discussion):")
	dist, err := wb.NodeDistribution(3) // E
	if err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, c := range dist {
		total += c
	}
	eduAttr := schema.Node[3]
	for v := 1; v < len(dist); v++ {
		if dist[v] > 0 {
			fmt.Printf("    E:%-12s %5.1f%%\n", eduAttr.Label(grminer.Value(v)), 100*float64(dist[v])/float64(total))
		}
	}
	basicSec, err := wb.QueryText("(E:Basic) -> (E:Secondary)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("    %s\n", basicSec.String(schema))
	fmt.Println("    => Secondary dwarfs Training in the population, explaining the strong secondary bond.")
}
