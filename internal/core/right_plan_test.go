package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"grminer/internal/baseline"
	"grminer/internal/core"
	"grminer/internal/graph"
	"grminer/internal/metrics"
)

// planGraph builds a small graph whose RHS can grow to three conditions:
// two homophily attributes (so β and trivial RHSs occur) and one that is
// not, plus one edge attribute. Null values occur on every attribute. Half
// the edges join nodes that share A, so homophily effects are large and an
// RHS extension that makes β non-empty can raise nhp (Remark 2).
func planGraph(seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	schema, err := graph.NewSchema(
		[]graph.Attribute{
			{Name: "A", Domain: 3, Homophily: true},
			{Name: "B", Domain: 2, Homophily: true},
			{Name: "C", Domain: 3},
		},
		[]graph.Attribute{{Name: "W", Domain: 2}},
	)
	if err != nil {
		panic(err)
	}
	n := 10 + r.Intn(8)
	g := graph.MustNew(schema, n)
	for v := 0; v < n; v++ {
		if err := g.SetNodeValues(v, graph.Value(r.Intn(4)), graph.Value(r.Intn(3)), graph.Value(r.Intn(4))); err != nil {
			panic(err)
		}
	}
	for e := 30 + r.Intn(40); e > 0; e-- {
		src, dst := r.Intn(n), r.Intn(n)
		if r.Intn(2) == 0 {
			for try := 0; try < 4*n && g.NodeValue(dst, 0) != g.NodeValue(src, 0); try++ {
				dst = r.Intn(n)
			}
		}
		if _, err := g.AddEdge(src, dst, graph.Value(r.Intn(3))); err != nil {
			panic(err)
		}
	}
	return g
}

// planCase is one metric setting of the RIGHT plan grid.
type planCase struct {
	name string
	opt  core.Options
}

// planCases covers every branch of RIGHT's plan: nhp with a static floor
// and with a dynamic one (the floor pre-score), lift (NeedsR: only the
// position and MaxR rules apply) and conf with IncludeTrivial (trivial
// groups are never pre-scored), each at MaxR 0, 1 and 2 and with the
// static RHS order on and off (under which an empty β is not prunable).
func planCases() []planCase {
	base := []planCase{
		{"nhp", core.Options{MinSupp: 2, MinScore: 0.3}},
		{"nhp-dynamic", core.Options{MinSupp: 1, MinScore: 0.3, K: 4, DynamicFloor: true, ExactGenerality: true}},
		{"lift", core.Options{MinSupp: 2, MinScore: 1.05, Metric: metrics.LiftMetric}},
		{"conf-trivial", core.Options{MinSupp: 2, MinScore: 0.3, K: 6, Metric: metrics.ConfMetric, IncludeTrivial: true}},
	}
	var out []planCase
	for _, c := range base {
		for _, maxR := range []int{0, 1, 2} {
			for _, static := range []bool{false, true} {
				o := c.opt
				o.MaxR, o.StaticRHSOrder = maxR, static
				out = append(out, planCase{fmt.Sprintf("%s/maxR=%d/static=%v", c.name, maxR, static), o})
			}
		}
	}
	return out
}

// TestRightPlanMatchesOracle: RIGHT moves the rows of a group only when it
// recurses below it, so every rule that leaves rows unmoved (position 0,
// MaxR reached, a score the floor already cuts) must leave the answer
// exactly the brute-force Definition 5 evaluation's, on the sequential walk
// and on a fan-out of two. Seed 25 adds a graph where a trivial RHS scores
// below the floor and a child that makes β non-empty enters the top-k:
// pre-scoring trivial groups would lose it.
func TestRightPlanMatchesOracle(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, 3, 4, 5, 25} {
		g := planGraph(seed)
		for _, c := range planCases() {
			want, err := baseline.Oracle(g, baseline.OracleOptions{
				MinSupp: c.opt.MinSupp, MinScore: c.opt.MinScore, K: c.opt.K, Metric: c.opt.Metric,
				MaxR: c.opt.MaxR, IncludeTrivial: c.opt.IncludeTrivial,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, width := range []int{1, 2} {
				res, err := mineAt(g, c.opt, width)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, fmt.Sprintf("seed %d %s width %d", seed, c.name, width), res.TopK, want)
			}
		}
	}
}

// TestRightPlanScopedWithDeletes runs the same grid through the incremental
// engine's witness-scoped re-mine, over batches that insert and delete:
// after every batch the top-k must equal a fresh mine of the surviving
// graph.
func TestRightPlanScopedWithDeletes(t *testing.T) {
	full := planGraph(7)
	for i, c := range planCases() {
		inc, err := core.NewIncremental(prefixGraph(full, full.NumEdges()), c.opt)
		if err != nil {
			t.Fatal(err)
		}
		ds := newDynamicStream(t, c.name, int64(i), full)
		deleted, scoped := false, false
		for batch := 0; batch < 6; batch++ {
			b := ds.nextBatch()
			deleted = deleted || len(b.Del) > 0
			res, bs, err := inc.ApplyBatch(b)
			if err != nil {
				t.Fatalf("%s: batch %d: %v", c.name, batch, err)
			}
			scoped = scoped || (bs.FullRemines == 0 && bs.SubtreesRemined > 0)
			ds.check(res.TopK, inc.Options())
		}
		if !deleted {
			t.Fatalf("%s: the stream never deleted an edge", c.name)
		}
		if !scoped && c.opt.Metric.Score == nil {
			t.Fatalf("%s: no batch ran a scoped re-mine", c.name)
		}
	}
}
