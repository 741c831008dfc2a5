package core_test

import (
	"math/rand"
	"testing"

	"grminer/internal/core"
	"grminer/internal/datagen"
	"grminer/internal/graph"
	"grminer/internal/metrics"
	"grminer/internal/store"
)

// prefixGraph returns an independent copy of g holding only its first n
// edges — the batch-mine reference states the oracle compares against.
func prefixGraph(g *graph.Graph, n int) *graph.Graph {
	out := graph.MustNew(g.Schema(), g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		vals := append([]graph.Value(nil), g.NodeValues(v)...)
		if err := out.SetNodeValues(v, vals...); err != nil {
			panic(err)
		}
	}
	for e := 0; e < n; e++ {
		if _, err := out.AddEdge(g.Src(e), g.Dst(e), g.EdgeValues(e)...); err != nil {
			panic(err)
		}
	}
	return out
}

// insertsFor converts g's edges [from, to) into a batch.
func insertsFor(g *graph.Graph, from, to int) []core.EdgeInsert {
	batch := make([]core.EdgeInsert, 0, to-from)
	for e := from; e < to; e++ {
		if !g.EdgeAlive(e) {
			continue
		}
		batch = append(batch, core.EdgeInsert{
			Src: g.Src(e), Dst: g.Dst(e),
			Vals: append([]graph.Value(nil), g.EdgeValues(e)...),
		})
	}
	return batch
}

// oracleThresholds picks a sensible minScore per metric (gain/PS scores are
// |E|-normalised and tiny; conviction/lift center on 1).
var oracleThresholds = map[string]float64{
	"nhp": 0.3, "conf": 0.3, "laplace": 0.3, "gain": 0,
	"piatetsky-shapiro": 0, "conviction": 1.0, "lift": 1.05,
}

// TestIncrementalOracle is the equivalence gate: stream random graphs
// through the incremental engine in random batch sizes and assert the
// maintained top-k equals a fresh batch mine after every batch — for every
// metric, both floor modes, with the reference mined at worker counts
// cycling through widths 1–8 (under -race this also exercises the static
// mine's fan-out).
func TestIncrementalOracle(t *testing.T) {
	seeds := []int64{0, 1, 2, 3}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		full := randomGraph(seed, seed%2 == 0, seed%3 != 0)
		base := full.NumEdges() / 2
		r := rand.New(rand.NewSource(seed + 100))
		workerCycle := 0
		for _, m := range metrics.All() {
			for _, dyn := range []bool{false, true} {
				for _, trivial := range []bool{false, true} {
					if trivial && m.Name != "conf" {
						continue // the Table II study mode; one metric suffices
					}
					opt := core.Options{
						MinSupp: 1, MinScore: oracleThresholds[m.Name], K: 10,
						DynamicFloor: dyn, Metric: m, IncludeTrivial: trivial,
					}
					inc, err := core.NewIncremental(prefixGraph(full, base), opt)
					if err != nil {
						t.Fatal(err)
					}
					label := m.Name
					if dyn {
						label += "-dynamic"
					}
					if trivial {
						label += "-trivial"
					}
					refOpt := inc.Options()
					seedRef, err := core.Mine(prefixGraph(full, base), refOpt)
					if err != nil {
						t.Fatal(err)
					}
					assertSameResults(t, label+"-seed", inc.Result().TopK, seedRef.TopK)
					//grlint:ignore deadedge cut is a stream position over a static snapshot; insertsFor skips tombstoned rows
					for cut := base; cut < full.NumEdges(); {
						next := cut + 1 + r.Intn(9)
						if next > full.NumEdges() {
							next = full.NumEdges()
						}
						res, _, err := inc.ApplyBatch(core.Batch{Ins: insertsFor(full, cut, next)})
						if err != nil {
							t.Fatalf("%s: apply [%d,%d): %v", label, cut, next, err)
						}
						cut = next
						workerCycle++
						ref, err := mineStoreAt(store.Build(prefixGraph(full, cut)), refOpt, workerCycle%8+1)
						if err != nil {
							t.Fatal(err)
						}
						assertSameResults(t, label+"-stream", res.TopK, ref.TopK)
					}
				}
			}
		}
	}
}

// A structured network at a larger scale: the maintained result must track
// the batch miner across growing batches, and the scoped re-mine must
// actually skip unaffected subtrees (the point of the delta path).
func TestIncrementalOnSyntheticDBLP(t *testing.T) {
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 1500
	cfg.Pairs = 2200
	full := datagen.DBLP(cfg)
	base := full.NumEdges() * 8 / 10

	opt := core.Options{MinSupp: 5, MinScore: 0.4, K: 20, DynamicFloor: true}
	inc, err := core.NewIncremental(prefixGraph(full, base), opt)
	if err != nil {
		t.Fatal(err)
	}
	skippedOnce := false
	//grlint:ignore deadedge cut is a stream position over a static snapshot; insertsFor skips tombstoned rows
	for cut := base; cut < full.NumEdges(); {
		next := cut + 50
		if next > full.NumEdges() {
			next = full.NumEdges()
		}
		res, bs, err := inc.ApplyBatch(core.Batch{Ins: insertsFor(full, cut, next)})
		if err != nil {
			t.Fatal(err)
		}
		cut = next
		if bs.FullRemines != 0 {
			t.Fatalf("nhp batch fell back to a full re-mine: %+v", bs)
		}
		if bs.SubtreesRemined < bs.SubtreesTotal {
			skippedOnce = true
		}
		ref, err := core.Mine(prefixGraph(full, cut), inc.Options())
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "dblp-incremental", res.TopK, ref.TopK)
	}
	if !skippedOnce {
		t.Error("scoped re-mine never skipped a subtree (delta path not exercised)")
	}
	if c := inc.Cumulative(); c.Batches == 0 || c.Edges != full.NumEdges()-base {
		t.Errorf("cumulative stats off: %+v", c)
	}
}

// A malformed edge anywhere in a batch must reject the whole batch before
// any state changes: same top-k, same edge count, engine still usable.
func TestIncrementalRejectsMalformedBatchAtomically(t *testing.T) {
	full := randomGraph(1, true, true)
	inc, err := core.NewIncremental(prefixGraph(full, full.NumEdges()), core.Options{
		MinSupp: 1, MinScore: 0.3, K: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := inc.Result()
	edges := before.TotalEdges
	bad := [][]core.EdgeInsert{
		{{Src: 0, Dst: 1, Vals: []graph.Value{1}}, {Src: -1, Dst: 0, Vals: []graph.Value{1}}},
		{{Src: 0, Dst: full.NumNodes() + 7, Vals: []graph.Value{1}}},
		{{Src: 0, Dst: 1, Vals: nil}},                    // missing edge attribute
		{{Src: 0, Dst: 1, Vals: []graph.Value{99}}},      // out of domain
		{{Src: 0, Dst: 1, Vals: []graph.Value{1, 1, 1}}}, // too many values
	}
	for i, batch := range bad {
		if _, _, err := inc.ApplyBatch(core.Batch{Ins: batch}); err == nil {
			t.Fatalf("bad batch %d accepted", i)
		}
	}
	if got := inc.Result(); got.TotalEdges != edges {
		t.Fatalf("rejected batches mutated the graph: %d edges, want %d", got.TotalEdges, edges)
	}
	assertSameResults(t, "post-reject", inc.Result().TopK, before.TopK)

	// And the engine still ingests a good batch afterwards.
	res, _, err := inc.ApplyBatch(core.Batch{Ins: []core.EdgeInsert{{Src: 0, Dst: 1, Vals: []graph.Value{1}}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEdges != edges+1 {
		t.Fatalf("good batch after rejects: %d edges, want %d", res.TotalEdges, edges+1)
	}
}

// An empty batch is a no-op that still returns the current result.
func TestIncrementalEmptyBatch(t *testing.T) {
	g := randomGraph(2, true, false)
	inc, err := core.NewIncremental(g, core.Options{MinSupp: 1, MinScore: 0.3, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	before := inc.Result().TopK
	res, bs, err := inc.ApplyBatch(core.Batch{})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Edges != 0 {
		t.Errorf("empty batch reported %d edges", bs.Edges)
	}
	assertSameResults(t, "empty-batch", res.TopK, before)
}

// Edges from previously inactive nodes (no LArray/RArray row at build time)
// must flow through the store's append segment correctly. Nodes n-2, n-1
// start fully disconnected, then become source and destination.
func TestIncrementalActivatesNewNodes(t *testing.T) {
	schema, err := graph.NewSchema([]graph.Attribute{
		{Name: "A", Domain: 3, Homophily: true},
		{Name: "B", Domain: 2},
	}, []graph.Attribute{{Name: "W", Domain: 2}})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	n := 12
	full := graph.MustNew(schema, n)
	for v := 0; v < n; v++ {
		if err := full.SetNodeValues(v, graph.Value(1+r.Intn(3)), graph.Value(r.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	// Base edges avoid the last two nodes entirely.
	for e := 0; e < 25; e++ {
		if _, err := full.AddEdge(r.Intn(n-2), r.Intn(n-2), graph.Value(r.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	base := full.NumEdges()
	// Stream edges that activate nodes n-2 (source) and n-1 (destination).
	for e := 0; e < 12; e++ {
		if _, err := full.AddEdge(n-2, r.Intn(n), graph.Value(1+r.Intn(2))); err != nil {
			t.Fatal(err)
		}
		if _, err := full.AddEdge(r.Intn(n), n-1, graph.Value(1+r.Intn(2))); err != nil {
			t.Fatal(err)
		}
	}
	inc, err := core.NewIncremental(prefixGraph(full, base), core.Options{
		MinSupp: 1, MinScore: 0.2, K: 12, DynamicFloor: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	//grlint:ignore deadedge cut is a stream position over a static snapshot; insertsFor skips tombstoned rows
	for cut := base; cut < full.NumEdges(); {
		next := cut + 5
		if next > full.NumEdges() {
			next = full.NumEdges()
		}
		res, _, err := inc.ApplyBatch(core.Batch{Ins: insertsFor(full, cut, next)})
		if err != nil {
			t.Fatal(err)
		}
		cut = next
		ref, err := core.Mine(prefixGraph(full, cut), inc.Options())
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "new-nodes", res.TopK, ref.TopK)
	}
}

// The shared sharded-by-RHS generality memo must not change parallel
// dynamic-floor results; hammer it with high worker counts on one store.
func TestSharedGeneralityMemoParallel(t *testing.T) {
	g := randomGraph(5, true, true)
	st := store.Build(g)
	seq, err := core.MineStore(st, core.Options{
		MinSupp: 1, MinScore: 0.25, K: 8, DynamicFloor: true, ExactGenerality: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 5; rep++ {
		for _, workers := range []int{4, 8} {
			par, err := mineStoreAt(st, core.Options{
				MinSupp: 1, MinScore: 0.25, K: 8, DynamicFloor: true, ExactGenerality: true,
			}, workers)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, "memo-parallel", par.TopK, seq.TopK)
		}
	}
}
