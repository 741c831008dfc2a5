package core_test

import (
	"math"
	"math/rand"
	"testing"

	"grminer/internal/core"
	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
)

// dynamicStream drives a randomized fully dynamic workload: interleaved
// mixed batches of fresh insertions and retractions of random live edges,
// generated against a private twin graph so the same ops can be replayed
// into the reference. apply runs one batch and returns the engine's top-k;
// the stream asserts it equals a full re-mine of the surviving twin after
// every batch.
type dynamicStream struct {
	t     *testing.T
	label string
	r     *rand.Rand
	// sim mirrors the engine's edge multiset (tombstones included — the
	// reference mine runs over the tombstoned graph, which also exercises
	// the dead-aware store build and Eval paths).
	sim  *graph.Graph
	live []int
}

func newDynamicStream(t *testing.T, label string, seed int64, base *graph.Graph) *dynamicStream {
	sim := prefixGraph(base, base.NumEdges())
	live := make([]int, 0, sim.NumEdges())
	for e := 0; e < sim.NumEdges(); e++ {
		if sim.EdgeAlive(e) {
			live = append(live, e)
		}
	}
	return &dynamicStream{
		t: t, label: label,
		r:   rand.New(rand.NewSource(seed)),
		sim: sim, live: live,
	}
}

// nextBatch builds one random mixed batch: 0-5 inserts and 0-3 deletes of
// live edges (deletes resolve pre-batch, so they never target the batch's
// own inserts).
func (ds *dynamicStream) nextBatch() core.Batch {
	var b core.Batch
	for i := ds.r.Intn(4); i > 0 && len(ds.live) > 0; i-- {
		j := ds.r.Intn(len(ds.live))
		e := ds.live[j]
		ds.live[j] = ds.live[len(ds.live)-1]
		ds.live = ds.live[:len(ds.live)-1]
		b.Del = append(b.Del, core.EdgeDelete{
			Src: ds.sim.Src(e), Dst: ds.sim.Dst(e),
			Vals: append([]graph.Value(nil), ds.sim.EdgeValues(e)...),
		})
		if err := ds.sim.RemoveEdge(e); err != nil {
			ds.t.Fatalf("%s: sim remove: %v", ds.label, err)
		}
	}
	n := ds.sim.NumNodes()
	for i := 1 + ds.r.Intn(5); i > 0; i-- {
		ins := core.EdgeInsert{
			Src: ds.r.Intn(n), Dst: ds.r.Intn(n),
			Vals: []graph.Value{graph.Value(ds.r.Intn(3))},
		}
		b.Ins = append(b.Ins, ins)
		e, err := ds.sim.AddEdge(ins.Src, ins.Dst, ins.Vals...)
		if err != nil {
			ds.t.Fatalf("%s: sim add: %v", ds.label, err)
		}
		ds.live = append(ds.live, e)
	}
	return b
}

// check asserts the engine's maintained top-k equals a fresh mine of the
// surviving twin graph under the engine's effective options.
func (ds *dynamicStream) check(got []gr.Scored, opt core.Options) {
	ref, err := core.Mine(ds.sim, opt)
	if err != nil {
		ds.t.Fatalf("%s: reference mine: %v", ds.label, err)
	}
	assertSameResults(ds.t, ds.label, got, ref.TopK)
}

// TestDynamicOracle is the headline equivalence gate of the fully dynamic
// engine: randomized interleaved insert/delete batches against the
// single-store engine, for every metric, both floor modes, the generality
// filter on and off; after every batch the maintained top-k must equal a
// full re-mine of the surviving graph from scratch.
func TestDynamicOracle(t *testing.T) {
	seeds := []int64{0, 1, 2}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		full := randomGraph(seed, seed%2 == 0, seed%3 != 0)
		for _, m := range metrics.All() {
			for _, dyn := range []bool{false, true} {
				for _, noGen := range []bool{false, true} {
					opt := core.Options{
						MinSupp: 1, MinScore: oracleThresholds[m.Name], K: 10,
						DynamicFloor: dyn, NoGeneralityFilter: noGen, Metric: m,
					}
					label := "dynamic-" + m.Name
					if dyn {
						label += "-dynfloor"
					}
					if noGen {
						label += "-nogen"
					}
					inc, err := core.NewIncremental(prefixGraph(full, full.NumEdges()), opt)
					if err != nil {
						t.Fatal(err)
					}
					ds := newDynamicStream(t, label, seed*31+int64(len(m.Name)), full)
					sawDeletes := false
					for batch := 0; batch < 10; batch++ {
						b := ds.nextBatch()
						sawDeletes = sawDeletes || len(b.Del) > 0
						res, _, err := inc.ApplyBatch(b)
						if err != nil {
							t.Fatalf("%s: batch %d: %v", label, batch, err)
						}
						ds.check(res.TopK, inc.Options())
					}
					if !sawDeletes {
						t.Fatalf("%s: stream never deleted an edge", label)
					}
				}
			}
		}
	}
}

// TestDynamicOracleWithoutScoreGate: an engine built with MinScore −Inf
// keeps every GR of enough support, so deletions only lower supports and
// its batches take the scoped path whatever the metric — lift, which is
// not DeltaSafe and rebuilds the pool under a score gate, as well as nhp.
// Through mixed insert/delete batches the maintained top-k must equal a
// fresh mine, and no batch may rebuild the pool.
func TestDynamicOracleWithoutScoreGate(t *testing.T) {
	seeds := []int64{5, 6, 7}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		full := randomGraph(seed, seed%2 == 0, true)
		for _, m := range []metrics.Metric{metrics.LiftMetric, metrics.NhpMetric} {
			for _, dyn := range []bool{false, true} {
				label := "ungated-" + m.Name
				if dyn {
					label += "-dynfloor"
				}
				inc, err := core.NewIncremental(prefixGraph(full, full.NumEdges()), core.Options{
					MinSupp: 2, MinScore: math.Inf(-1), K: 10, DynamicFloor: dyn, Metric: m,
				})
				if err != nil {
					t.Fatal(err)
				}
				ds := newDynamicStream(t, label, seed*13+int64(len(m.Name)), full)
				sawDeletes := false
				for batch := 0; batch < 10; batch++ {
					b := ds.nextBatch()
					sawDeletes = sawDeletes || len(b.Del) > 0
					res, bs, err := inc.ApplyBatch(b)
					if err != nil {
						t.Fatalf("%s: batch %d: %v", label, batch, err)
					}
					if bs.FullRemines != 0 {
						t.Fatalf("%s: batch %d rebuilt the pool: %+v", label, batch, bs)
					}
					ds.check(res.TopK, inc.Options())
				}
				if !sawDeletes {
					t.Fatalf("%s: stream never deleted an edge", label)
				}
			}
		}
	}
}

// TestDynamicShardedOracle is the sharded half: the same randomized mixed
// stream routed through in-process shard workers, 1-8 shards, both routing
// strategies cycled, every metric — deletions route to the owning shard,
// worker pools decrement, and the merged global top-k must equal a fresh
// single-store mine of the surviving graph after every batch.
func TestDynamicShardedOracle(t *testing.T) {
	strategies := []graph.ShardStrategy{graph.ShardBySource, graph.ShardByRHS}
	seeds := []int64{3, 4}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		full := randomGraph(seed, seed%2 == 1, seed%3 == 0)
		cycle := 0
		for _, m := range metrics.All() {
			for _, dyn := range []bool{false, true} {
				cycle++
				shards := cycle%8 + 1
				strategy := strategies[cycle%2]
				opt := core.Options{
					MinSupp: 2, MinScore: oracleThresholds[m.Name], K: 8,
					DynamicFloor: dyn, Metric: m,
				}
				label := "dynamic-sharded-" + m.Name
				if dyn {
					label += "-dynfloor"
				}
				inc, err := core.NewIncrementalSharded(prefixGraph(full, full.NumEdges()), opt,
					core.ShardOptions{Shards: shards, Strategy: strategy})
				if err != nil {
					t.Fatal(err)
				}
				ds := newDynamicStream(t, label, seed*17+int64(cycle), full)
				for batch := 0; batch < 6; batch++ {
					res, _, err := inc.ApplyBatch(ds.nextBatch())
					if err != nil {
						t.Fatalf("%s: batch %d: %v", label, batch, err)
					}
					ds.check(res.TopK, inc.Options())
				}
				inc.Close()
			}
		}
	}
}

// TestDeletionEvictsTopK pins the demotion case with a seeded, deterministic
// fixture: a GR enters the top-k on the strength of edges that a later
// deletion batch retracts, the maintained list must evict it, and the floor
// machinery must not remember the stale higher score (condition (3) is
// re-derived from the surviving pool, never carried forward).
func TestDeletionEvictsTopK(t *testing.T) {
	schema, err := graph.NewSchema(
		[]graph.Attribute{{Name: "A", Domain: 2, Homophily: true}},
		[]graph.Attribute{{Name: "W", Domain: 2}},
	)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.MustNew(schema, 8)
	// Nodes 0-3 carry A=1, nodes 4-7 carry A=2.
	for v := 0; v < 8; v++ {
		val := graph.Value(1)
		if v >= 4 {
			val = 2
		}
		if err := g.SetNodeValues(v, val); err != nil {
			t.Fatal(err)
		}
	}
	// Background edges keep (A:2) -> (A:1) qualifying throughout, and the
	// second group spoils every generalisation of the target — () -> (A:2)
	// and () -[W:2]-> (A:2) both score 4/12 and 4/8 < 0.6, so nothing
	// blocks the target via Definition 5 condition (2).
	for i := 0; i < 4; i++ {
		if _, err := g.AddEdge(4+i, i, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddEdge(4+i, i, 2); err != nil {
			t.Fatal(err)
		}
	}
	// Four (A:1) -> (A:2) edges with W=2: the pattern a deletion will demote.
	for i := 0; i < 4; i++ {
		if _, err := g.AddEdge(i, 4+i, 2); err != nil {
			t.Fatal(err)
		}
	}
	opt := core.Options{MinSupp: 3, MinScore: 0.6, K: 5, DynamicFloor: true}
	inc, err := core.NewIncremental(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	target := "L0:1;WR0:2;" // (A:1) -> (A:2), nhp 1.0 on the seed graph
	if !topKHasKey(inc.Result().TopK, target) {
		t.Fatalf("fixture broken: %s not in seed top-k: %+v", target, inc.Result().TopK)
	}
	// Retract two of the four supporting edges: support falls to 2 < 3.
	res, bs, err := inc.ApplyBatch(core.Batch{Del: []core.EdgeDelete{
		{Src: 0, Dst: 4, Vals: []graph.Value{2}},
		{Src: 1, Dst: 5, Vals: []graph.Value{2}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Deleted != 2 {
		t.Fatalf("reported %d deletions, want 2", bs.Deleted)
	}
	if topKHasKey(res.TopK, target) {
		t.Fatalf("deletion did not evict %s: %+v", target, res.TopK)
	}
	ref, err := core.Mine(g, inc.Options())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "eviction", res.TopK, ref.TopK)

	// Re-inserting one edge restores support 3: the scoped re-mine must
	// re-discover the evicted pattern (pool re-entry after a drop).
	res, _, err = inc.ApplyBatch(core.Batch{Ins: []core.EdgeInsert{{Src: 0, Dst: 4, Vals: []graph.Value{2}}}})
	if err != nil {
		t.Fatal(err)
	}
	if !topKHasKey(res.TopK, target) {
		t.Fatalf("re-insertion did not restore %s: %+v", target, res.TopK)
	}
	ref, err = core.Mine(g, inc.Options())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "restore", res.TopK, ref.TopK)
}

func topKHasKey(topK []gr.Scored, key string) bool {
	for _, s := range topK {
		if s.GR.Key() == key {
			return true
		}
	}
	return false
}

// TestDynamicRejectsMalformedBatchAtomically extends the atomic-rejection
// contract to mixed batches: an unmatched retraction — alone or alongside
// valid inserts — must leave the engine untouched; and a mixed batch whose
// delete targets an edge only its own insert would create must also reject
// (deletions resolve strictly pre-batch).
func TestDynamicRejectsMalformedBatchAtomically(t *testing.T) {
	full := randomGraph(9, true, true)
	inc, err := core.NewIncremental(prefixGraph(full, full.NumEdges()), core.Options{
		MinSupp: 1, MinScore: 0.3, K: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := inc.Result()
	// A value combination no live edge carries: delete of it must fail.
	noSuch := core.EdgeDelete{Src: 0, Dst: 0, Vals: []graph.Value{3}}
	bad := []core.Batch{
		{Del: []core.EdgeDelete{noSuch}},
		{Ins: []core.EdgeInsert{{Src: 0, Dst: 1, Vals: []graph.Value{1}}}, Del: []core.EdgeDelete{noSuch}},
		{Del: []core.EdgeDelete{{Src: 0, Dst: 1, Vals: nil}}}, // missing value
		// Pre-batch semantics: the insert cannot satisfy its own delete.
		{
			Ins: []core.EdgeInsert{{Src: 0, Dst: 0, Vals: []graph.Value{3}}},
			Del: []core.EdgeDelete{noSuch},
		},
	}
	for i, b := range bad {
		if _, _, err := inc.ApplyBatch(b); err == nil {
			t.Fatalf("bad batch %d accepted", i)
		}
	}
	if got := inc.Result(); got.TotalEdges != before.TotalEdges {
		t.Fatalf("rejected batches mutated the graph: %d edges, want %d", got.TotalEdges, before.TotalEdges)
	}
	assertSameResults(t, "post-reject", inc.Result().TopK, before.TopK)

	// The sharded engine applies the same contract.
	g2 := prefixGraph(full, full.NumEdges())
	sharded, err := core.NewIncrementalSharded(g2, core.Options{MinSupp: 1, MinScore: 0.3, K: 5},
		core.ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	prev := sharded.Result()
	if _, _, err := sharded.ApplyBatch(core.Batch{Del: []core.EdgeDelete{noSuch}}); err == nil {
		t.Fatal("sharded engine accepted an unmatched retraction")
	}
	if g2.NumLiveEdges() != prev.TotalEdges {
		t.Fatalf("sharded rejection mutated the graph")
	}
	assertSameResults(t, "sharded-post-reject", sharded.Result().TopK, prev.TopK)
}
