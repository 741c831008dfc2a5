// Quickstart: mine top-k group relationships from the paper's toy dating
// network (Figure 1) and verify the motivating examples GR1-GR4.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"grminer"
)

func main() {
	// The Figure 1 network: 14 daters with SEX, RACE, EDU; RACE and EDU are
	// homophily attributes, SEX is not.
	g := grminer.ToyDating()
	fmt.Printf("toy dating network: %d nodes, %d directed edges\n\n", g.NumNodes(), g.NumEdges())

	// Part 1 — query the paper's motivating GRs directly.
	wb := grminer.NewWorkbench(g)
	for _, q := range []string{
		"(SEX:M) -> (SEX:F, RACE:Asian)",             // GR1: men prefer Asian women
		"(SEX:M, RACE:Asian) -> (SEX:F, RACE:Asian)", // GR2: ... except Asian men
		"(SEX:F, EDU:Grad) -> (SEX:M, EDU:Grad)",     // GR3: homophily on education
		"(SEX:F, EDU:Grad) -> (SEX:M, EDU:College)",  // GR4: the secondary bond
	} {
		rep, err := wb.QueryText(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(" ", rep.String(g.Schema()))
	}
	fmt.Println("\nGR4 reads: female grads who do NOT date grads date college men 100% of the time.")

	// Part 2 — let the miner find the interesting ties automatically.
	eng, err := grminer.Open(g, grminer.EngineConfig{Options: grminer.Options{
		MinSupp:      2,   // absolute support
		MinScore:     0.6, // minNhp
		K:            5,
		DynamicFloor: true, // the paper's GRMiner(k)
	}})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Mine()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntop-%d non-trivial GRs by nhp (minSupp=2, minNhp=60%%):\n", len(res.TopK))
	for i, s := range res.TopK {
		fmt.Printf("  %d. %-50s nhp=%5.1f%% supp=%d conf=%5.1f%%\n",
			i+1, s.GR.Format(g.Schema()), 100*s.Score, s.Supp, 100*s.Conf)
	}
	fmt.Printf("\nsearch: examined %d GRs, traversed %d trivial partitions, %d partition calls in %v\n",
		res.Stats.Examined, res.Stats.TrivialSeen, res.Stats.PartitionCalls, res.Stats.Duration)
}
