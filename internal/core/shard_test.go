package core_test

import (
	"testing"

	"grminer/internal/core"
	"grminer/internal/graph"
	"grminer/internal/metrics"
)

var shardStrategies = []graph.ShardStrategy{graph.ShardBySource, graph.ShardByRHS}

// TestShardedOracle is the sharded half of the equivalence gate: for random
// graphs, every metric, both floor modes, both strategies, and shard counts
// 1-8, the sharded coordinator's merged top-k must equal a single-store
// mine under the coordinator's effective options. Shard counts and
// strategies cycle across the metric/floor grid so the full 1-8 range is
// exercised without mining every combination.
func TestShardedOracle(t *testing.T) {
	seeds := []int64{0, 1, 2, 3}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		g := randomGraph(seed, seed%2 == 0, seed%3 != 0)
		cycle := 0
		for _, m := range metrics.All() {
			for _, dyn := range []bool{false, true} {
				for _, trivial := range []bool{false, true} {
					if trivial && m.Name != "conf" {
						continue // the Table II study mode; one metric suffices
					}
					opt := core.Options{
						MinSupp: 2, MinScore: oracleThresholds[m.Name], K: 10,
						DynamicFloor: dyn, Metric: m, IncludeTrivial: trivial,
					}
					for _, strategy := range shardStrategies {
						cycle++
						so := core.ShardOptions{Shards: cycle%8 + 1, Strategy: strategy}
						sc, err := core.NewShardCoordinator(g, opt, so)
						if err != nil {
							t.Fatal(err)
						}
						res, err := sc.Mine()
						if err != nil {
							t.Fatal(err)
						}
						ref, err := core.Mine(g, sc.Options())
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
						t.Logf("%s shards=%d by=%s", label, so.Shards, strategy)
						assertSameResults(t, label, res.TopK, ref.TopK)
					}
				}
			}
		}
	}
}

// Every shard count 1-8 must hold for the default metric in both floor
// modes and both strategies — the dense sweep the cycling oracle samples.
func TestShardedAllShardCounts(t *testing.T) {
	g := randomGraph(11, true, true)
	for _, dyn := range []bool{false, true} {
		opt := core.Options{MinSupp: 1, MinScore: 0.3, K: 8, DynamicFloor: dyn}
		for _, strategy := range shardStrategies {
			for n := 1; n <= 8; n++ {
				sc, err := core.NewShardCoordinator(g, opt, core.ShardOptions{Shards: n, Strategy: strategy})
				if err != nil {
					t.Fatal(err)
				}
				res, err := sc.Mine()
				if err != nil {
					t.Fatal(err)
				}
				ref, err := core.Mine(g, sc.Options())
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, "dense-sweep", res.TopK, ref.TopK)
			}
		}
	}
}

// With the generality filter off, the merge only ranks the survivors; the
// result must still match single-store mining.
func TestShardedNoGeneralityFilter(t *testing.T) {
	g := randomGraph(7, true, false)
	for _, dyn := range []bool{false, true} {
		for _, k := range []int{0, 5} {
			if dyn && k == 0 {
				continue // DynamicFloor requires K > 0
			}
			opt := core.Options{
				MinSupp: 1, MinScore: 0.3, K: k,
				DynamicFloor: dyn, NoGeneralityFilter: true,
			}
			sc, err := core.NewShardCoordinator(g, opt, core.ShardOptions{Shards: 5})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sc.Mine()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.Mine(g, sc.Options())
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, "no-filter", res.TopK, ref.TopK)
		}
	}
}

// More shards than distinct routing keys leaves some shards empty; the
// coordinator must treat them as empty stores and still merge exactly.
func TestShardedEmptyShards(t *testing.T) {
	schema, err := graph.NewSchema([]graph.Attribute{
		{Name: "A", Domain: 3, Homophily: true},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.MustNew(schema, 4)
	for v := 0; v < 4; v++ {
		if err := g.SetNodeValues(v, graph.Value(v%3+1)); err != nil {
			t.Fatal(err)
		}
	}
	// Two sources only: under ShardBySource at 8 shards, at least six
	// shards are empty.
	for i := 0; i < 6; i++ {
		if _, err := g.AddEdge(i%2, (i+1)%4); err != nil {
			t.Fatal(err)
		}
	}
	sc, err := core.NewShardCoordinator(g, core.Options{MinSupp: 1, MinScore: 0.1, K: 5},
		core.ShardOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	empty := 0
	for _, e := range sc.Plan().Edges {
		if e == 0 {
			empty++
		}
	}
	if empty < 6 {
		t.Fatalf("expected ≥ 6 empty shards over 2 sources, plan: %v", sc.Plan().Edges)
	}
	res, err := sc.Mine()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Mine(g, sc.Options())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "empty-shards", res.TopK, ref.TopK)
}

// A graph whose edges all share one source routes everything to a single
// shard under ShardBySource — the maximal-skew degenerate plan.
func TestShardedAllEdgesOneShard(t *testing.T) {
	schema, err := graph.NewSchema([]graph.Attribute{
		{Name: "A", Domain: 3, Homophily: true},
	}, []graph.Attribute{{Name: "W", Domain: 2}})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.MustNew(schema, 8)
	for v := 0; v < 8; v++ {
		if err := g.SetNodeValues(v, graph.Value(v%3+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 8; i++ {
		if _, err := g.AddEdge(0, i, graph.Value(i%2+1)); err != nil {
			t.Fatal(err)
		}
	}
	sc, err := core.NewShardCoordinator(g, core.Options{MinSupp: 1, MinScore: 0.1, K: 5},
		core.ShardOptions{Shards: 4, Strategy: graph.ShardBySource})
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, e := range sc.Plan().Edges {
		if e > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("single-source graph spread over %d shards: %v", nonEmpty, sc.Plan().Edges)
	}
	res, err := sc.Mine()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Mine(g, sc.Options())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "one-shard", res.TopK, ref.TopK)
}

// Invalid layouts must be rejected up front.
func TestShardedRejectsBadLayout(t *testing.T) {
	g := randomGraph(3, true, true)
	opt := core.Options{MinSupp: 1, K: 5}
	if _, err := core.NewShardCoordinator(g, opt, core.ShardOptions{Shards: 0}); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := core.NewShardCoordinator(g, opt, core.ShardOptions{Shards: -2}); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := core.NewShardCoordinator(g, opt, core.ShardOptions{Shards: 2, Strategy: "nope"}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// The coordinator's plan must lay out every live edge over the requested
// shards, with the per-shard offer threshold ⌈minSupp/shards⌉.
func TestShardPlanMinSupp(t *testing.T) {
	g := randomGraph(4, true, true)
	for _, tc := range []struct{ minSupp, shards, want int }{
		{10, 1, 10}, {10, 2, 5}, {10, 3, 4}, {10, 4, 3}, {1, 8, 1}, {7, 8, 1},
	} {
		sc, err := core.NewShardCoordinator(g, core.Options{MinSupp: tc.minSupp, K: 5},
			core.ShardOptions{Shards: tc.shards})
		if err != nil {
			t.Fatal(err)
		}
		plan := sc.Plan()
		if plan.ShardMinSupp != tc.want {
			t.Errorf("minSupp %d over %d shards: ShardMinSupp = %d, want %d",
				tc.minSupp, tc.shards, plan.ShardMinSupp, tc.want)
		}
		total := 0
		for _, n := range plan.Edges {
			total += n
		}
		if plan.Shards != tc.shards || len(plan.Edges) != tc.shards || total != g.NumLiveEdges() {
			t.Errorf("%d shards: plan lays out %d shards / %d edge counts holding %d edges, want %d edges",
				tc.shards, plan.Shards, len(plan.Edges), total, g.NumLiveEdges())
		}
	}
}
