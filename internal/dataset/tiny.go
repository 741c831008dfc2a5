package dataset

import (
	"math/rand"

	"grminer/internal/graph"
)

// TinyHomophily builds a small random network (10–17 nodes, 30–69 edges,
// fixed by seed) whose RHS descriptors can grow to three conditions: two
// homophily node attributes (so β and trivial RHSs occur) and one that is
// not, plus one edge attribute. Null values occur on every attribute. Half
// the edges join nodes that share A, so homophily effects are large and an
// RHS extension that makes β non-empty can raise nhp (Remark 2). The tests
// of RIGHT's plan and of its homophily effects mine it.
func TinyHomophily(seed int64) *graph.Graph {
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
