package core_test

import (
	"runtime"
	"testing"

	"grminer/internal/core"
	"grminer/internal/graph"
	"grminer/internal/metrics"
)

// FuzzScopedApplyBatch drives the witness-scoped re-mine with
// fuzzer-chosen mixed batches over a tiny fixed graph: after every batch
// the maintained top-k must equal a fresh Mine of the surviving graph, and
// a twin engine whose capture walks fan out over 4 workers instead of 1
// must report the same result and the same work.
//
// ops[0] picks the options: a DeltaSafe metric (scoped for insert-only
// batches; the DeleteSafe ones for deletions too), the floor mode, K, and
// a PoolCap of 2 (spill and underflow). Each following 3-byte op
// (kind, x, y) either closes the batch (kind%4 == 0), inserts x -> y with
// edge value kind/4 % 3 (null included) (kind%4 == 1), or retracts the
// pre-batch live edge numbered x<<8|y (otherwise).
func FuzzScopedApplyBatch(f *testing.F) {
	var deltaSafe []metrics.Metric
	for _, m := range metrics.All() {
		if m.DeltaSafe {
			deltaSafe = append(deltaSafe, m)
		}
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		if len(ops) > 64 {
			ops = ops[:64] // bound the work of one input
		}
		sel := ops[0]
		m := deltaSafe[int(sel)%len(deltaSafe)]
		opt := core.Options{
			MinSupp: 1, MinScore: oracleThresholds[m.Name], Metric: m,
			K: 2 + int(sel>>3)%4, DynamicFloor: sel&4 != 0,
		}
		if sel&0x80 != 0 {
			opt.PoolCap = 2
		}
		g := randomGraph(3, true, false)
		// live lists the edges retractable in the current batch: the
		// graph's live edges as the batch began, minus those it retracts.
		var live []int
		resetLive := func() {
			live = live[:0]
			for e := 0; e < g.NumEdges(); e++ {
				if g.EdgeAlive(e) {
					live = append(live, e)
				}
			}
		}
		resetLive()
		inc, err := newIncrementalAtWidth(g, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := newIncrementalAtWidth(randomGraph(3, true, false), opt, 4)
		if err != nil {
			t.Fatal(err)
		}
		var b core.Batch
		apply := func() {
			res, bs, err := inc.ApplyBatch(b)
			if err != nil {
				t.Fatalf("batch %+v: %v", b, err)
			}
			res4, bs4, err := twin.ApplyBatch(b)
			if err != nil {
				t.Fatalf("batch %+v at width 4: %v", b, err)
			}
			bs.Duration, bs4.Duration = 0, 0
			s, s4 := res.Stats, res4.Stats
			s.Duration, s4.Duration = 0, 0
			if bs != bs4 || s != s4 {
				t.Fatalf("batch %+v: width 4 did other work:\n width 1 %+v %+v\n width 4 %+v %+v", b, bs, s, bs4, s4)
			}
			b = core.Batch{}
			resetLive()
			ref, err := core.Mine(g, inc.Options())
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, "fuzz", res.TopK, ref.TopK)
			assertSameResults(t, "fuzz width 4", res4.TopK, res.TopK)
		}
		n := g.NumNodes()
		for ops = ops[1:]; len(ops) >= 3; ops = ops[3:] {
			kind, x, y := ops[0], int(ops[1]), int(ops[2])
			switch kind % 4 {
			case 0:
				apply()
			case 1:
				b.Ins = append(b.Ins, core.EdgeInsert{Src: x % n, Dst: y % n, Vals: []graph.Value{graph.Value(kind / 4 % 3)}})
			default:
				if len(live) == 0 {
					continue
				}
				j := (x<<8 | y) % len(live)
				e := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				b.Del = append(b.Del, core.EdgeDelete{
					Src: g.Src(e), Dst: g.Dst(e),
					Vals: append([]graph.Value(nil), g.EdgeValues(e)...),
				})
			}
		}
		apply()
	})
}

// newIncrementalAtWidth builds an engine whose capture walks fan out over
// width workers: the engine takes its width from GOMAXPROCS when built.
func newIncrementalAtWidth(g *graph.Graph, opt core.Options, width int) (*core.Incremental, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
	return core.NewIncremental(g, opt)
}
