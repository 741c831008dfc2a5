package core_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"grminer/internal/core"
	"grminer/internal/datagen"
	"grminer/internal/graph"
	"grminer/internal/metrics"
)

// TestIncrementalShardedOracle streams random graphs through the sharded
// incremental engine in random batch sizes and asserts the maintained
// top-k equals a fresh single-store mine after every batch — for every
// metric (including the lift family, which the sharded engine serves
// without full re-mines), both floor modes, both strategies, and shard
// counts cycling 2-8.
func TestIncrementalShardedOracle(t *testing.T) {
	seeds := []int64{0, 1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		full := randomGraph(seed, seed%2 == 0, seed%3 != 0)
		base := full.NumEdges() / 2
		r := rand.New(rand.NewSource(seed + 300))
		cycle := 0
		for _, m := range metrics.All() {
			for _, dyn := range []bool{false, true} {
				cycle++
				so := core.ShardOptions{
					Shards:   cycle%7 + 2,
					Strategy: shardStrategies[cycle%2],
				}
				opt := core.Options{
					MinSupp: 1, MinScore: oracleThresholds[m.Name], K: 10,
					DynamicFloor: dyn, Metric: m,
				}
				inc, err := core.NewIncrementalSharded(prefixGraph(full, base), opt, so)
				if err != nil {
					t.Fatal(err)
				}
				label := m.Name + "-sharded"
				if dyn {
					label += "-dynamic"
				}
				ref, err := core.Mine(prefixGraph(full, base), inc.Options())
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, label+"-seed", inc.Result().TopK, ref.TopK)
				//grlint:ignore deadedge cut is a stream position over a static snapshot; insertsFor skips tombstoned rows
				for cut := base; cut < full.NumEdges(); {
					next := cut + 1 + r.Intn(9)
					if next > full.NumEdges() {
						next = full.NumEdges()
					}
					res, bs, err := inc.ApplyBatch(core.Batch{Ins: insertsFor(full, cut, next)})
					if err != nil {
						t.Fatalf("%s: apply [%d,%d): %v", label, cut, next, err)
					}
					if bs.FullRemines != 0 {
						t.Fatalf("%s: sharded engine fell back to a full re-mine", label)
					}
					cut = next
					ref, err := core.Mine(prefixGraph(full, cut), inc.Options())
					if err != nil {
						t.Fatal(err)
					}
					assertSameResults(t, label+"-stream", res.TopK, ref.TopK)
				}
			}
		}
	}
}

// Batches must land on the shard the deterministic strategy owns: after any
// stream, the engine's per-shard edge counts equal a fresh partition of the
// grown graph.
func TestIncrementalShardedRoutesToOwningShard(t *testing.T) {
	full := randomGraph(9, true, true)
	base := full.NumEdges() / 2
	for _, strategy := range shardStrategies {
		inc, err := core.NewIncrementalSharded(prefixGraph(full, base),
			core.Options{MinSupp: 1, MinScore: 0.3, K: 5},
			core.ShardOptions{Shards: 4, Strategy: strategy})
		if err != nil {
			t.Fatal(err)
		}
		//grlint:ignore deadedge cut is a stream position over a static snapshot; insertsFor skips tombstoned rows
		for cut := base; cut < full.NumEdges(); {
			next := min(cut+7, full.NumEdges())
			if _, _, err := inc.ApplyBatch(core.Batch{Ins: insertsFor(full, cut, next)}); err != nil {
				t.Fatal(err)
			}
			cut = next
		}
		fresh, err := graph.PartitionEdges(full, 4, strategy)
		if err != nil {
			t.Fatal(err)
		}
		for s, part := range fresh {
			if inc.Plan().Edges[s] != len(part) {
				t.Errorf("%s: shard %d holds %d edges, fresh partition has %d",
					strategy, s, inc.Plan().Edges[s], len(part))
			}
		}
	}
}

// A malformed edge anywhere in a batch must reject the whole batch before
// the graph or any shard store changes.
func TestIncrementalShardedRejectsMalformedBatchAtomically(t *testing.T) {
	full := randomGraph(1, true, true)
	inc, err := core.NewIncrementalSharded(prefixGraph(full, full.NumEdges()),
		core.Options{MinSupp: 1, MinScore: 0.3, K: 5},
		core.ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	before := inc.Result()
	edges := before.TotalEdges
	planBefore := append([]int(nil), inc.Plan().Edges...)
	bad := [][]core.EdgeInsert{
		{{Src: 0, Dst: 1, Vals: []graph.Value{1}}, {Src: -1, Dst: 0, Vals: []graph.Value{1}}},
		{{Src: 0, Dst: full.NumNodes() + 7, Vals: []graph.Value{1}}},
		{{Src: 0, Dst: 1, Vals: nil}},
		{{Src: 0, Dst: 1, Vals: []graph.Value{99}}},
	}
	for i, batch := range bad {
		if _, _, err := inc.ApplyBatch(core.Batch{Ins: batch}); err == nil {
			t.Fatalf("bad batch %d accepted", i)
		}
	}
	if got := inc.Result(); got.TotalEdges != edges {
		t.Fatalf("rejected batches mutated the graph: %d edges, want %d", got.TotalEdges, edges)
	}
	for s, n := range inc.Plan().Edges {
		if n != planBefore[s] {
			t.Fatalf("rejected batches mutated shard %d: %d edges, want %d", s, n, planBefore[s])
		}
	}
	assertSameResults(t, "sharded-post-reject", inc.Result().TopK, before.TopK)

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
func TestIncrementalShardedEmptyBatch(t *testing.T) {
	g := randomGraph(2, true, false)
	inc, err := core.NewIncrementalSharded(g, core.Options{MinSupp: 1, MinScore: 0.3, K: 5},
		core.ShardOptions{Shards: 2, Strategy: graph.ShardByRHS})
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
	assertSameResults(t, "sharded-empty-batch", res.TopK, before)
}

// With minSupp high enough that ShardMinSupp > 1, pool entries must enter
// a shard's pool *late* — only when streamed edges push their shard support
// over the lowered threshold — which exercises the scoped-re-mine discovery
// path and the gap-fill skip-bound (shardMinSupp−1 per non-offering shard)
// that the MinSupp=1 oracles never reach. A structured DBLP-like graph
// keeps supports high enough for real crossings.
func TestIncrementalShardedThresholdCrossing(t *testing.T) {
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 1200
	cfg.Pairs = 1800
	full := datagen.DBLP(cfg)
	base := full.NumEdges() * 8 / 10

	for _, tc := range []struct {
		shards  int
		minSupp int
		dyn     bool
	}{
		{2, 8, true},
		{3, 12, false},
	} {
		so := core.ShardOptions{Shards: tc.shards, Strategy: graph.ShardBySource}
		inc, err := core.NewIncrementalSharded(prefixGraph(full, base),
			core.Options{MinSupp: tc.minSupp, MinScore: 0.3, K: 15, DynamicFloor: tc.dyn}, so)
		if err != nil {
			t.Fatal(err)
		}
		if got := inc.Plan().ShardMinSupp; got < 2 {
			t.Fatalf("ShardMinSupp = %d; this test requires a lowered threshold > 1", got)
		}
		seedTracked := inc.Cumulative().Tracked
		//grlint:ignore deadedge cut is a stream position over a static snapshot; insertsFor skips tombstoned rows
		for cut := base; cut < full.NumEdges(); {
			next := min(cut+40, full.NumEdges())
			res, _, err := inc.ApplyBatch(core.Batch{Ins: insertsFor(full, cut, next)})
			if err != nil {
				t.Fatal(err)
			}
			cut = next
			ref, err := core.Mine(prefixGraph(full, cut), inc.Options())
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, "threshold-crossing", res.TopK, ref.TopK)
		}
		if inc.Cumulative().Tracked <= seedTracked {
			t.Errorf("shards=%d minSupp=%d: pool never grew (%d entries); no threshold crossing exercised",
				tc.shards, tc.minSupp, seedTracked)
		}
	}
}

// TestIncrementalShardedPhaseTimes checks the per-batch phase times of the
// sharded engine on a 2-shard stream that inserts and retracts: each is
// non-negative, they sum to at most the batch's Duration, every phase the
// batch runs is set (the round-2 fetch on batches that sent round-2
// requests), and Cumulative sums them.
func TestIncrementalShardedPhaseTimes(t *testing.T) {
	cfg := datagen.DefaultPokecConfig()
	cfg.Nodes, cfg.AvgOutDegree = 300, 8
	full := datagen.Pokec(cfg)
	base := full.NumEdges() * 3 / 4
	inc, err := core.NewIncrementalSharded(prefixGraph(full, base),
		core.Options{MinSupp: 30, MinScore: 0.4, K: 20, DynamicFloor: true}, core.ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Close()
	phases := func(s core.IncStats) []time.Duration {
		return []time.Duration{s.RouteTime, s.IngestTime, s.ApplyTime, s.BoundTime, s.FetchTime, s.RankTime}
	}
	var sum core.IncStats
	fetched := 0
	for b, cut := 0, base; b < 6; b++ {
		batch := core.Batch{Ins: insertsFor(full, cut, cut+10)}
		cut += 10
		for e := b; len(batch.Del) < 10; e += 37 {
			batch.Del = append(batch.Del, core.EdgeDelete{Src: full.Src(e), Dst: full.Dst(e), Vals: full.EdgeValues(e)})
		}
		res, bs, err := inc.ApplyBatch(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		var total time.Duration
		for i, d := range phases(bs) {
			total += d
			switch {
			case d < 0:
				t.Errorf("batch %d: phase %d took %v", b, i, d)
			case d == 0 && (i != 4 || res.Stats.ExactCountRequests > 0):
				t.Errorf("batch %d: phase %d not timed (%d round-2 requests)", b, i, res.Stats.ExactCountRequests)
			}
		}
		if total > bs.Duration {
			t.Errorf("batch %d: phases sum to %v, the batch took %v", b, total, bs.Duration)
		}
		if res.Stats.ExactCountRequests > 0 {
			fetched++
		}
		sum.RouteTime += bs.RouteTime
		sum.IngestTime += bs.IngestTime
		sum.ApplyTime += bs.ApplyTime
		sum.BoundTime += bs.BoundTime
		sum.FetchTime += bs.FetchTime
		sum.RankTime += bs.RankTime
	}
	if fetched == 0 {
		t.Fatal("no batch sent a round-2 request: the fetch phase went untested")
	}
	if got, want := phases(inc.Cumulative()), phases(sum); !slices.Equal(got, want) {
		t.Errorf("Cumulative phases %v, the batches sum to %v", got, want)
	}
}
