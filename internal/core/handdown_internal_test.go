package core

import (
	"fmt"
	"math/rand"
	"testing"

	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
)

// TestBitmapHandDown: below a bitmap descent a partition travels as the
// bitmap that formed it, and its rows are materialised only for a
// counting-sort consumer, once per partition.
func TestBitmapHandDown(t *testing.T) {
	// One inserted edge per batch carries at most one value per position,
	// so a node's bitmap plan costs words × active against counting sort's
	// active × |partition|: with MinSupp above the store's row words every
	// entered partition is larger, and every descent takes the bitmap path.
	// No partition may then be materialised.
	t.Run("all-bitmap", func(t *testing.T) {
		g := fanOutGraph()
		opt := Options{MinSupp: g.NumEdges()/64 + 8, MinScore: 0.3, K: 20, Metric: metrics.NhpMetric}
		inc, err := newIncremental(g, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := inc.fan.ws[0].m
		log := logRows(m)
		deep := 0
		next := m.capture
		m.capture = func(g gr.GR, c metrics.Counts, score float64) {
			if len(g.L)+len(g.W) > 0 {
				deep++
			}
			next(g, c, score)
		}
		r := rand.New(rand.NewSource(7))
		for batch := 0; batch < 6; batch++ {
			label := fmt.Sprintf("batch %d", batch)
			_, bs, err := inc.ApplyBatch(fanOutBatch(r, inc.g, 1, 0))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if bs.FullRemines != 0 || bs.SubtreesRemined == 0 {
				t.Fatalf("%s: no scoped re-mine ran (%+v)", label, bs)
			}
			if words := (inc.st.NumRows() + 63) / 64; opt.MinSupp <= words {
				t.Fatalf("%s: MinSupp %d does not exceed the %d row words", label, opt.MinSupp, words)
			}
			if log.fresh != 0 {
				t.Fatalf("%s: %d partitions materialised under an all-bitmap walk", label, log.fresh)
			}
			checkAgainstMine(t, label, inc.g, inc)
		}
		if deep == 0 {
			t.Fatal("no GR below a descent was captured; the walk went unexercised")
		}
	})

	// A first-level LEFT partition is handed down as its posting bitmap.
	// On a wide store with small LEFT partitions, a partition some witness
	// reaches is cheaper to counting-sort than to AND word-wide, so its
	// RIGHT root and its EDGE node (MaxL 1 leaves them its only consumers)
	// both ask for its rows: the second must reuse the rows the first
	// materialised.
	t.Run("shared-rows", func(t *testing.T) {
		r := rand.New(rand.NewSource(8))
		inc, err := newIncremental(handDownGraph(t, r), Options{MinSupp: 5, MinScore: 0.3, K: 20, MaxL: 1, Metric: metrics.NhpMetric}, 1)
		if err != nil {
			t.Fatal(err)
		}
		log := logRows(inc.fan.ws[0].m)
		shared := 0
		for batch := 0; batch < 4; batch++ {
			label := fmt.Sprintf("batch %d", batch)
			clear(log.requests)
			clear(log.materialised)
			var b Batch
			for i := 0; i < 48; i++ {
				b.Ins = append(b.Ins, EdgeInsert{Src: r.Intn(inc.g.NumNodes()), Dst: r.Intn(inc.g.NumNodes()), Vals: []graph.Value{graph.Value(1 + r.Intn(4))}})
			}
			if _, _, err := inc.ApplyBatch(b); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for bm, n := range log.requests {
				if got := log.materialised[bm]; got != 1 {
					t.Fatalf("%s: a first-level partition asked for its rows %d times was materialised %d times", label, n, got)
				}
				// A counting root asks twice (destOffsets, then its
				// scatter) and EDGE once, while a bitmap root asks at
				// most once, for a β scan: three requests are the
				// counting root and the counting EDGE.
				if n >= 3 {
					shared++
				}
			}
			checkAgainstMine(t, label, inc.g, inc)
		}
		t.Logf("%d first-level partitions shared one materialisation", shared)
		if shared == 0 {
			t.Fatal("no first-level partition had two counting consumers; the shared materialisation went unexercised")
		}
	})
}

// handDownGraph is a random graph of 300 nodes over a homophily attribute
// R of domain 100 and an attribute G of domain 2, with 3000 edges over an
// edge attribute W of domain 4, every value non-null: a first-level
// partition of R holds about 30 of the store's 47 row words' worth of rows.
func handDownGraph(t *testing.T, r *rand.Rand) *graph.Graph {
	t.Helper()
	schema, err := graph.NewSchema(
		[]graph.Attribute{{Name: "R", Domain: 100, Homophily: true}, {Name: "G", Domain: 2}},
		[]graph.Attribute{{Name: "W", Domain: 4}},
	)
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 300
	g := graph.MustNew(schema, nodes)
	for v := 0; v < nodes; v++ {
		if err := g.SetNodeValues(v, graph.Value(1+r.Intn(100)), graph.Value(1+r.Intn(2))); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < 3000; e++ {
		if _, err := g.AddEdge(r.Intn(nodes), r.Intn(nodes), graph.Value(1+r.Intn(4))); err != nil {
			t.Fatal(err)
		}
	}
	return g
}
