package grminer_test

import (
	"math/rand"
	"testing"

	"grminer"
)

// End-to-end facade test of the application substrates: mine GRs, feed them
// to the recommender, and propagate classes with the influence matrix.
func TestFacadeRecommendFlow(t *testing.T) {
	// Small product network: PRODUCT homophily plus a planted
	// Stocks -> Bonds secondary bond.
	schema, err := grminer.NewSchema(
		[]grminer.Attribute{
			{Name: "JOB", Domain: 2, Labels: []string{"∅", "Lawyer", "Other"}},
			{Name: "PRODUCT", Domain: 3, Homophily: true, Labels: []string{"∅", "Savings", "Stocks", "Bonds"}},
		},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	g, err := grminer.NewGraph(schema, 300)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	var bonds, stocks []int
	for n := 0; n < 300; n++ {
		job := grminer.Value(r.Intn(2) + 1)
		prod := grminer.Value(r.Intn(3) + 1)
		if err := g.SetNodeValues(n, job, prod); err != nil {
			t.Fatal(err)
		}
		switch prod {
		case 2:
			stocks = append(stocks, n)
		case 3:
			bonds = append(bonds, n)
		}
	}
	for e := 0; e < 2500; e++ {
		src := r.Intn(300)
		var dst int
		if g.NodeValue(src, 1) == 2 && r.Float64() < 0.6 {
			dst = bonds[r.Intn(len(bonds))] // the secondary bond
		} else {
			dst = r.Intn(300)
		}
		if dst == src {
			dst = (dst + 1) % 300
		}
		if _, err := g.AddEdge(src, dst); err != nil {
			t.Fatal(err)
		}
	}

	res := mine(t, g, grminer.Options{MinSupp: 20, MinScore: 0.5, K: 10, DynamicFloor: true})
	if len(res.TopK) == 0 {
		t.Fatal("no GRs mined")
	}
	rec := grminer.NewRecommender(g, res.TopK)
	if rec.Rules() == 0 {
		t.Fatal("recommender kept no rules")
	}
	// A node with stock-owning in-neighbors that does not own bonds should
	// get bonds suggested.
	target := -1
	for n := 0; n < 300 && target < 0; n++ {
		if g.NodeValue(n, 1) == 3 {
			continue
		}
		for e := 0; e < g.NumEdges(); e++ {
			if g.EdgeAlive(e) && g.Dst(e) == n && g.NodeValue(g.Src(e), 1) == 2 {
				target = n
				break
			}
		}
	}
	if target < 0 {
		t.Fatal("no suitable target node")
	}
	sugg, err := rec.ForNode(target, 3)
	if err != nil {
		t.Fatal(err)
	}
	foundBonds := false
	for _, s := range sugg {
		if v, ok := s.R.Get(1); ok && v == 3 {
			foundBonds = true
		}
	}
	if !foundBonds {
		t.Errorf("bonds not suggested to node %d: %+v", target, sugg)
	}

	// Campaign form.
	prospects, err := rec.Campaign(res.TopK[0].GR.R, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(prospects); i++ {
		if prospects[i].Score > prospects[i-1].Score {
			t.Fatal("campaign prospects not sorted")
		}
	}
}

func TestFacadePropagateFlow(t *testing.T) {
	cfg := grminer.DefaultDBLPConfig()
	cfg.Authors = 1500
	cfg.Pairs = 2500
	g := grminer.DBLP(cfg)
	influence, err := grminer.InfluenceMatrix(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(influence) != 4 {
		t.Fatalf("influence matrix %dx?", len(influence))
	}
	res, err := grminer.Propagate(g, influence, grminer.PropagateConfig{Attr: 0})
	if err != nil {
		t.Fatal(err)
	}
	// All nodes are labeled, so predictions must match their labels.
	wrong := 0
	for v := 0; v < g.NumNodes(); v++ {
		if res.Predict(v) != g.NodeValue(v, 0) {
			wrong++
		}
	}
	if wrong > 0 {
		t.Errorf("%d labeled nodes flipped class", wrong)
	}
}
