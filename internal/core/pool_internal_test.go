package core

import (
	"math/rand"
	"testing"

	"grminer/internal/datagen"
	"grminer/internal/metrics"
)

// TestPoolHomUntrackedWithoutNeedsHom pins the pool kernel's Hom gate: a
// metric that does not read the homophily effect (conf) captures Hom = 0,
// so the delta recount must leave it at 0 too — even for entries whose β
// is non-empty, where an edge matching l ∧ w ∧ l[β] would otherwise move
// it. A drifted Hom would surface through Explain and the /v1 rule counts.
func TestPoolHomUntrackedWithoutNeedsHom(t *testing.T) {
	cfg := datagen.DefaultPokecConfig()
	cfg.Nodes = 400
	g := datagen.Pokec(cfg)
	inc, err := NewIncremental(g, Options{MinSupp: 10, MinScore: 0.3, K: 20, Metric: metrics.ConfMetric})
	if err != nil {
		t.Fatal(err)
	}
	schema := g.Schema()
	withBeta := 0
	for _, e := range inc.pool.entries {
		if betaMaskOf(schema, e.gr.L, e.gr.R) != 0 {
			withBeta++
		}
	}
	if withBeta == 0 {
		t.Fatal("fixture pool holds no entry with a non-empty β; the check is vacuous")
	}

	r := rand.New(rand.NewSource(5))
	live := make([]int, 0, g.NumEdges())
	for e := 0; e < g.NumEdges(); e++ {
		if g.EdgeAlive(e) {
			live = append(live, e)
		}
	}
	for batch := 0; batch < 40; batch++ {
		// Odd batches mix in retractions; even ones are insert-only, the case
		// whose scoped re-mine filters the R side by the batch's values and
		// so leaves most recounted entries un-recaptured.
		var b Batch
		for i := 0; batch%2 == 1 && i < 4; i++ {
			// Retractions resolve against the pre-batch graph by signature;
			// Pokec edges carry no values, so endpoints name them.
			j := r.Intn(len(live))
			e := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			b.Del = append(b.Del, EdgeDelete{Src: g.Src(e), Dst: g.Dst(e)})
		}
		for i := 0; i < 8; i++ {
			b.Ins = append(b.Ins, EdgeInsert{Src: r.Intn(g.NumNodes()), Dst: r.Intn(g.NumNodes())})
		}
		first := g.NumEdges()
		if _, _, err := inc.ApplyBatch(b); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for e := first; e < g.NumEdges(); e++ {
			if g.EdgeAlive(e) {
				live = append(live, e)
			}
		}
		for i, e := range inc.pool.entries {
			if e.c.Hom != 0 {
				t.Fatalf("batch %d: pool entry %d (%s) carries Hom %d under conf, want 0",
					batch, i, e.gr.Format(schema), e.c.Hom)
			}
		}
	}
}
