package rpc_test

import (
	"math/rand"
	"testing"

	"grminer/internal/core"
	"grminer/internal/graph"
	"grminer/internal/metrics"
	"grminer/internal/rpc"
)

// copyGraph clones g (node table + live edges, preserving edge ids and
// tombstones) so the oracle's twin stays independent of the engine's graph.
func copyGraph(g *graph.Graph) *graph.Graph {
	out := graph.MustNew(g.Schema(), g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		if err := out.SetNodeValues(v, append([]graph.Value(nil), g.NodeValues(v)...)...); err != nil {
			panic(err)
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		if _, err := out.AddEdge(g.Src(e), g.Dst(e), g.EdgeValues(e)...); err != nil {
			panic(err)
		}
		if !g.EdgeAlive(e) {
			if err := out.RemoveEdge(e); err != nil {
				panic(err)
			}
		}
	}
	return out
}

// TestRemoteDynamicOracle streams randomized mixed insert/delete batches
// through the remote sharded incremental engine: retractions route to the
// owning shardd daemon (protocol v2's Deletes slice), worker pools
// decrement — demotions below the shard threshold included — and after
// every batch the maintained top-k must equal a fresh single-store mine of
// the surviving graph.
func TestRemoteDynamicOracle(t *testing.T) {
	mets := []metrics.Metric{metrics.NhpMetric, metrics.GainMetric, metrics.LiftMetric}
	if testing.Short() {
		mets = mets[:1]
	}
	for mi, m := range mets {
		for _, dyn := range []bool{false, true} {
			seed := int64(300 + mi)
			r := rand.New(rand.NewSource(seed))
			g := randomGraph(seed, true, mi%2 == 0)
			sim := copyGraph(g)
			live := make([]int, 0, sim.NumEdges())
			for e := 0; e < sim.NumEdges(); e++ {
				if sim.EdgeAlive(e) {
					live = append(live, e)
				}
			}
			workers := 2 + (mi+boolInt(dyn))%3
			addrs := startWorkers(t, workers)
			opt := core.Options{
				MinSupp: 2, MinScore: oracleThresholds[m.Name], K: 8,
				DynamicFloor: dyn, Metric: m,
			}
			inc, err := core.NewIncrementalShardedFrom(g, opt,
				core.ShardOptions{Shards: workers}, rpc.NewFleet(addrs, rpc.FleetOptions{}))
			if err != nil {
				t.Fatal(err)
			}
			for batch := 0; batch < 5; batch++ {
				var b core.Batch
				for i := r.Intn(4); i > 0 && len(live) > 0; i-- {
					j := r.Intn(len(live))
					e := live[j]
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					b.Del = append(b.Del, core.EdgeDelete{
						Src: sim.Src(e), Dst: sim.Dst(e),
						Vals: append([]graph.Value(nil), sim.EdgeValues(e)...),
					})
					if err := sim.RemoveEdge(e); err != nil {
						t.Fatal(err)
					}
				}
				for i := 1 + r.Intn(5); i > 0; i-- {
					ins := core.EdgeInsert{
						Src: r.Intn(sim.NumNodes()), Dst: r.Intn(sim.NumNodes()),
						Vals: []graph.Value{graph.Value(r.Intn(3))},
					}
					b.Ins = append(b.Ins, ins)
					e, err := sim.AddEdge(ins.Src, ins.Dst, ins.Vals...)
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, e)
				}
				res, bs, err := inc.ApplyBatch(b)
				if err != nil {
					t.Fatalf("%s: batch %d: %v", m.Name, batch, err)
				}
				if bs.Deleted != len(b.Del) {
					t.Fatalf("%s: reported %d deletions for %d retractions", m.Name, bs.Deleted, len(b.Del))
				}
				ref, err := core.Mine(sim, inc.Options())
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, "remote-dynamic-"+m.Name, res.TopK, ref.TopK)
			}
			inc.Close()
		}
	}
}

// TestRemoteUnmatchedRetractionRejected: a retraction matching no live edge
// must reject the whole batch before any worker or coordinator state
// changes, exactly like the in-process engines.
func TestRemoteUnmatchedRetractionRejected(t *testing.T) {
	g := randomGraph(8, true, true)
	addrs := startWorkers(t, 2)
	inc, err := core.NewIncrementalShardedFrom(g, core.Options{MinSupp: 2, MinScore: 0.3, K: 5},
		core.ShardOptions{Shards: 2}, rpc.NewFleet(addrs, rpc.FleetOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Close()
	before := g.NumLiveEdges()
	prev := inc.Result().TopK
	bad := core.Batch{
		Ins: []core.EdgeInsert{{Src: 0, Dst: 1, Vals: []graph.Value{1}}},
		Del: []core.EdgeDelete{{Src: 0, Dst: 0, Vals: []graph.Value{3}}},
	}
	if _, _, err := inc.ApplyBatch(bad); err == nil {
		t.Fatal("unmatched retraction accepted")
	}
	if g.NumLiveEdges() != before {
		t.Fatalf("rejected batch changed the graph: %d -> %d live edges", before, g.NumLiveEdges())
	}
	assertSameResults(t, "after-reject", inc.Result().TopK, prev)

	// The engine stays usable: a valid mixed batch afterwards must apply.
	good := core.Batch{
		Ins: []core.EdgeInsert{{Src: 0, Dst: 1, Vals: []graph.Value{1}}},
		Del: []core.EdgeDelete{{Src: g.Src(0), Dst: g.Dst(0), Vals: append([]graph.Value(nil), g.EdgeValues(0)...)}},
	}
	res, _, err := inc.ApplyBatch(good)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Mine(g, inc.Options())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "after-good", res.TopK, ref.TopK)
}
