package main

import (
	"math/rand"
	"time"

	"grminer/internal/core"
	"grminer/internal/datagen"
	"grminer/internal/graph"
)

// params sizes one workload. Every input is generated from the workload
// seed before any timing starts.
type params struct {
	Nodes  int     // Pokec-like node count
	Degree float64 // average out-degree of the graph the program is handed
	// Held is the fraction of the nodes × degree edges held out of the
	// seed graph (serve-stream).
	Held float64
	// Ins and Del are the insertions and retractions per batch.
	Ins, Del int
	// Setups is how many times a run sets the program up; setup_s is
	// their median and the last one is measured.
	Setups int
	// MinOps is the fewest timed operations a run makes, however long
	// they take.
	MinOps int
	// ReadEvery is the open-loop read interval (serve-stream).
	ReadEvery time.Duration
	Shards    int // shard-churn
}

// miningOptions are the thresholds every workload mines with: nhp, minSupp
// 50, minNhp 0.5, k 100, with the dynamic floor and exact generality that
// every live engine guarantees.
func miningOptions() core.Options {
	return core.Options{MinSupp: 50, MinScore: 0.5, K: 100, DynamicFloor: true, ExactGenerality: true}
}

// graphSeed is the generator seed of every workload's network: grbench's
// default. The network's shape sets how much work a mine does, and graphs
// generated from different seeds differ in it by tens of percent, so the
// workload seed varies how the network is presented instead (see pokec).
const graphSeed = 1

// pokec generates the Pokec-like network with nodes × degree edges, then
// renumbers its nodes and reorders its edges by a permutation drawn from
// seed. Every seed thus hands the program a different input of the same
// shape: the same rules hold with the same supports, but stores, postings,
// shard routing and the held-out and retracted edges all differ.
func pokec(nodes int, degree float64, seed int64) (*graph.Graph, error) {
	cfg := datagen.DefaultPokecConfig()
	cfg.Nodes, cfg.AvgOutDegree, cfg.Seed = nodes, degree, graphSeed
	gen := datagen.Pokec(cfg)
	r := rand.New(rand.NewSource(seed))
	id := r.Perm(gen.NumNodes())
	g, err := graph.New(gen.Schema(), gen.NumNodes())
	if err != nil {
		return nil, err
	}
	for v := 0; v < gen.NumNodes(); v++ {
		if err := g.SetNodeValues(id[v], gen.NodeValues(v)...); err != nil {
			return nil, err
		}
	}
	for _, e := range r.Perm(gen.NumEdges()) {
		if _, err := g.AddEdge(id[gen.Src(e)], id[gen.Dst(e)], gen.EdgeValues(e)...); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// prefix copies full's node table and its first n edges into a new graph.
// Edges are in random order (see pokec), so the prefix is a uniform sample
// of full's edges.
func prefix(full *graph.Graph, n int) (*graph.Graph, error) {
	g, err := graph.New(full.Schema(), full.NumNodes())
	if err != nil {
		return nil, err
	}
	for v := 0; v < full.NumNodes(); v++ {
		if err := g.SetNodeValues(v, full.NodeValues(v)...); err != nil {
			return nil, err
		}
	}
	for e := 0; e < n; e++ {
		if _, err := g.AddEdge(full.Src(e), full.Dst(e), full.EdgeValues(e)...); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// streamLen is how many batches a run precomputes: enough for 40 batches a
// second, far above any engine's rate today, and at least minOps.
func streamLen(dur time.Duration, minOps int) int {
	return max(40*int(dur/time.Second), minOps)
}

// stream precomputes up to n batches over the graph made of full's first
// base edges. Each batch retracts del live edges chosen at random and
// inserts ins edges: full's remaining edges in order, then, once those are
// spent, edges retracted by earlier batches. Retractions are drawn from the
// edges live before the batch, as the engines resolve them. The stream ends
// early when a batch cannot be filled.
func stream(full *graph.Graph, base, ins, del, n int, r *rand.Rand) []core.Batch {
	edge := func(e int) core.EdgeInsert {
		return core.EdgeInsert{Src: full.Src(e), Dst: full.Dst(e), Vals: append([]graph.Value(nil), full.EdgeValues(e)...)}
	}
	live := make([]core.EdgeInsert, 0, base)
	for e := 0; e < base; e++ {
		live = append(live, edge(e))
	}
	next := base
	var retracted []core.EdgeInsert
	out := make([]core.Batch, 0, n)
	for len(out) < n {
		var b core.Batch
		for i := 0; i < del && len(live) > 0; i++ {
			j := r.Intn(len(live))
			d := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			b.Del = append(b.Del, core.EdgeDelete{Src: d.Src, Dst: d.Dst, Vals: d.Vals})
		}
		for i := 0; i < ins; i++ {
			switch {
			case next < full.NumEdges():
				b.Ins = append(b.Ins, edge(next))
				next++
			case len(retracted) > 0:
				b.Ins = append(b.Ins, retracted[0])
				retracted = retracted[1:]
			}
		}
		if len(b.Ins) < ins || len(b.Del) < del {
			break
		}
		for _, d := range b.Del {
			retracted = append(retracted, core.EdgeInsert{Src: d.Src, Dst: d.Dst, Vals: d.Vals})
		}
		live = append(live, b.Ins...)
		out = append(out, b)
	}
	return out
}
