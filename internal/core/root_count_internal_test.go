package core

import (
	"fmt"
	"math/rand"
	"testing"

	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
)

// rootSkipGraph is a random graph over node attributes A and B (homophily)
// and C, where nodes below nullC are null on C and every other node
// carries a value on every attribute.
func rootSkipGraph(t *testing.T, r *rand.Rand, nodes, nullC, edges int) *graph.Graph {
	t.Helper()
	schema, err := graph.NewSchema(
		[]graph.Attribute{{Name: "A", Domain: 3, Homophily: true}, {Name: "B", Domain: 2, Homophily: true}, {Name: "C", Domain: 4}},
		[]graph.Attribute{{Name: "W", Domain: 2}},
	)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.MustNew(schema, nodes)
	for v := 0; v < nodes; v++ {
		c := graph.Value(1 + r.Intn(4))
		if v < nullC {
			c = graph.Null
		}
		if err := g.SetNodeValues(v, graph.Value(1+r.Intn(3)), graph.Value(1+r.Intn(2)), c); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < edges; e++ {
		if _, err := g.AddEdge(r.Intn(nodes), r.Intn(nodes), graph.Value(1+r.Intn(2))); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestScopedRootSkipThenRemine: an RHS subtree root counts every node
// attribute of its base in one pass, but a scoped re-mine plans only the
// positions some witness carries a value at, so the root must leave the
// histograms of the positions it skips as clean as those it plans. Two
// insert-only batches run back to back on one engine: the first inserts
// only edges into nodes null on C, so every counting root of its re-mine
// skips C; the second inserts edges into nodes valued on C, so its roots
// plan C. Between batches every root histogram must be zero, and each
// batch must leave the engine equal to a fresh Mine.
func TestScopedRootSkipThenRemine(t *testing.T) {
	const nodes, nullC = 40, 10
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := rootSkipGraph(t, r, nodes, nullC, 160)
		inc, err := newIncremental(g, Options{MinSupp: 1, MinScore: 0, K: 30, Metric: metrics.NhpMetric}, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := inc.fan.ws[0].m
		var counted int
		next := m.capture
		m.capture = func(g gr.GR, c metrics.Counts, score float64) {
			if (len(g.L) > 0 || len(g.W) > 0) && !rootIsBitmap(m) {
				counted++
			}
			next(g, c, score)
		}
		for i, dst := range [][2]int{{0, nullC}, {nullC, nodes}} {
			label := fmt.Sprintf("seed %d batch %d", seed, i)
			var b Batch
			for j := 0; j < 12; j++ {
				b.Ins = append(b.Ins, EdgeInsert{Src: r.Intn(nodes), Dst: dst[0] + r.Intn(dst[1]-dst[0]), Vals: []graph.Value{graph.Value(1 + r.Intn(2))}})
			}
			counted = 0
			_, bs, err := inc.ApplyBatch(b)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if bs.FullRemines != 0 || counted == 0 {
				t.Fatalf("%s: %d full re-mines, %d GRs under counting roots; the batch must run a scoped re-mine through counting roots", label, bs.FullRemines, counted)
			}
			for a, h := range m.scr.rootHists {
				for v, n := range h {
					if n != 0 {
						t.Fatalf("%s: root histogram of attribute %d holds %d at value %d after the batch", label, a, n, v)
					}
				}
			}
			checkAgainstMine(t, label, inc.g, inc)
		}
	}
}
