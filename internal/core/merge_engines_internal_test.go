package core

import (
	"fmt"
	"testing"

	"grminer/internal/metrics"
	"grminer/internal/store"
)

// TestMergeAgreesAcrossEngines pins the condition-(2)/(3) merge every engine
// ends in: on the bench-gate fixture with a static floor, the sequential
// walk, the parallel coordinator and the sharded coordinator must return the
// same top-k and agree on how many GRs met condition (1) (Candidates) and
// how many of those condition (2) blocked (Blocked). The oracles compare
// results only; these two counters are what a merge that forked between
// engines would move first.
func TestMergeAgreesAcrossEngines(t *testing.T) {
	g := gateGraph()
	st := store.Build(g)
	cases := []struct {
		m        metrics.Metric
		minScore float64
	}{
		{metrics.NhpMetric, 0.5},
		{metrics.ConfMetric, 0.5},
		{metrics.LiftMetric, 1},
	}
	for _, tc := range cases {
		for _, k := range []int{0, 50} {
			opt := Options{MinSupp: g.NumEdges() / 200, MinScore: tc.minScore, K: k, Metric: tc.m}
			label := fmt.Sprintf("%s-k%d", tc.m.Name, k)
			ref, _, err := mineStore(st, opt, 1)
			if err != nil {
				t.Fatalf("%s sequential: %v", label, err)
			}
			if ref.Stats.Candidates == 0 || ref.Stats.Blocked == 0 {
				t.Fatalf("%s: fixture exercises no blocking: %+v", label, ref.Stats)
			}
			check := func(engine string, res *Result) {
				t.Helper()
				if res.Stats.Candidates != ref.Stats.Candidates || res.Stats.Blocked != ref.Stats.Blocked {
					t.Errorf("%s %s: candidates/blocked = %d/%d, sequential %d/%d", label, engine,
						res.Stats.Candidates, res.Stats.Blocked, ref.Stats.Candidates, ref.Stats.Blocked)
				}
				if len(res.TopK) != len(ref.TopK) {
					t.Fatalf("%s %s: %d results, sequential %d", label, engine, len(res.TopK), len(ref.TopK))
				}
				for i, want := range ref.TopK {
					got := res.TopK[i]
					if got.GR.Key() != want.GR.Key() || got.Supp != want.Supp || got.Score != want.Score || got.Conf != want.Conf {
						t.Fatalf("%s %s: rank %d: got %s %d %v, sequential %s %d %v", label, engine, i,
							got.GR.Key(), got.Supp, got.Score, want.GR.Key(), want.Supp, want.Score)
					}
				}
			}
			for _, p := range []int{2, 4} {
				res, _, err := mineStore(st, opt, p)
				if err != nil {
					t.Fatalf("%s x%d: %v", label, p, err)
				}
				check(fmt.Sprintf("parallel-%d", p), res)
			}
			for _, n := range []int{2, 3} {
				sc, err := NewShardCoordinator(g, opt, ShardOptions{Shards: n})
				if err != nil {
					t.Fatalf("%s shards=%d: %v", label, n, err)
				}
				res, err := sc.Mine()
				sc.Close()
				if err != nil {
					t.Fatalf("%s shards=%d: %v", label, n, err)
				}
				check(fmt.Sprintf("sharded-%d", n), res)
			}
			t.Logf("%s: candidates=%d blocked=%d", label, ref.Stats.Candidates, ref.Stats.Blocked)
		}
	}
}
