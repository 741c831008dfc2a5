// Marketing: the paper's Example 3 — a financial institution leveraging
// social influence. Homophily-based targeting ("lawyers who bought stocks
// influence friends to buy stocks") fails when the friends already own the
// product; a high-nhp GR such as
//
//	(JOB:Lawyer, PRODUCT:Stocks) -> (PRODUCT:Bonds)
//
// identifies what the *non-owners* among those friends actually adopt, so
// promoting Bonds to them converts far better.
//
// The network is synthesised here with the public graph-building API: nodes
// are customers with JOB and PRODUCT, edges are friendships.
//
// Run with: go run ./examples/marketing
package main

import (
	"fmt"
	"log"
	"math/rand"

	"grminer"
)

// Attribute values.
const (
	jobLawyer = 1
	jobDoctor = 2
	jobTrader = 3
	jobOther  = 4

	prodSavings = 1
	prodStocks  = 2
	prodBonds   = 3
	prodFunds   = 4
)

func main() {
	g, err := buildNetwork(4000, 30000, 7)
	if err != nil {
		log.Fatal(err)
	}
	schema := g.Schema()
	fmt.Printf("customer network: %d customers, %d friendships\n\n", g.NumNodes(), g.NumEdges())

	// Mine the strongest non-homophily ties between product communities.
	eng, err := grminer.Open(g, grminer.EngineConfig{Options: grminer.Options{
		MinSupp: 100, MinScore: 0.5, K: 8, DynamicFloor: true,
	}})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Mine()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top cross-sell GRs by nhp:")
	for i, s := range res.TopK {
		fmt.Printf("  %d. %-55s nhp=%5.1f%% supp=%-6d conf=%5.1f%%\n",
			i+1, s.GR.Format(schema), 100*s.Score, s.Supp, 100*s.Conf)
	}

	// The Example 3 comparison: homophily targeting vs the secondary bond.
	wb := grminer.NewWorkbench(g)
	fmt.Println("\nExample 3, spelled out:")
	stocks, err := wb.QueryText("(JOB:Lawyer, PRODUCT:Stocks) -> (PRODUCT:Stocks)")
	if err != nil {
		log.Fatal(err)
	}
	bonds, err := wb.QueryText("(JOB:Lawyer, PRODUCT:Stocks) -> (PRODUCT:Bonds)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  homophily play: ", stocks.String(schema))
	fmt.Println("  secondary bond: ", bonds.String(schema))
	fmt.Printf("\nreading: of the friends of stock-owning lawyers who do NOT own stocks,\n"+
		"%.0f%% own bonds — promote Bonds to the rest for the adoption rate the\n"+
		"homophily campaign cannot reach (its targets mostly already own stocks).\n", 100*bonds.Nhp)
}

// buildNetwork synthesises the customer graph: PRODUCT is homophilous
// (communities form around products), JOB is not; stock-owning lawyers'
// friends who do not own stocks own bonds disproportionately.
func buildNetwork(customers, friendships int, seed int64) (*grminer.Graph, error) {
	schema, err := grminer.NewSchema(
		[]grminer.Attribute{
			{Name: "JOB", Domain: 4, Labels: []string{"∅", "Lawyer", "Doctor", "Trader", "Other"}},
			{Name: "PRODUCT", Domain: 4, Homophily: true,
				Labels: []string{"∅", "Savings", "Stocks", "Bonds", "Funds"}},
		},
		nil,
	)
	if err != nil {
		return nil, err
	}
	g, err := grminer.NewGraph(schema, customers)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	jobs := []int{jobLawyer, jobDoctor, jobTrader, jobOther}
	jobWeights := []float64{0.15, 0.15, 0.10, 0.60}
	for n := 0; n < customers; n++ {
		job := sample(r, jobs, jobWeights)
		// Lawyers and traders skew toward stocks; everyone else spreads out.
		var product int
		switch {
		case (job == jobLawyer || job == jobTrader) && r.Float64() < 0.5:
			product = prodStocks
		default:
			product = []int{prodSavings, prodStocks, prodBonds, prodFunds}[r.Intn(4)]
		}
		if err := g.SetNodeValues(n, grminer.Value(job), grminer.Value(product)); err != nil {
			return nil, err
		}
	}
	// Product-community buckets for homophilous wiring.
	byProduct := make(map[grminer.Value][]int)
	bonds := []int{}
	for n := 0; n < customers; n++ {
		p := g.NodeValue(n, 1)
		byProduct[p] = append(byProduct[p], n)
		if p == prodBonds {
			bonds = append(bonds, n)
		}
	}
	for e := 0; e < friendships; e++ {
		src := r.Intn(customers)
		var dst int
		roll := r.Float64()
		isStockLawyer := g.NodeValue(src, 0) == jobLawyer && g.NodeValue(src, 1) == prodStocks
		switch {
		case isStockLawyer && roll < 0.45:
			// The planted secondary bond: stock-owning lawyers befriend
			// bond owners (tax-advice circles, say).
			dst = bonds[r.Intn(len(bonds))]
		case roll < 0.60:
			// Product homophily.
			peers := byProduct[g.NodeValue(src, 1)]
			dst = peers[r.Intn(len(peers))]
		default:
			dst = r.Intn(customers)
		}
		if dst == src {
			dst = (dst + 1) % customers
		}
		if _, err := g.AddEdge(src, dst); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func sample(r *rand.Rand, vals []int, weights []float64) int {
	x := r.Float64()
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return vals[i]
		}
	}
	return vals[len(vals)-1]
}
