// The bench-gate microbenchmark suite: the allocation budget of the hot
// mine/re-mine paths, enforced by CI (DESIGN.md §7). These benchmarks are
// internal (package core) on purpose — BenchmarkRecount drives the pool
// recount directly, without the batch-validation and assembly layers around
// it — and are designed so every iteration leaves the engine in the state it
// started from: a mixed batch inserts and deletes the same edge multiset, so
// b.N iterations measure a steady state instead of a drifting graph.
//
// CI runs them with fixed iteration counts (-benchtime Nx, -count ≥ 5,
// -benchmem) and cmd/benchgate compares the B/op and allocs/op medians
// against the committed baseline (internal/bench/gate/baseline.txt).
package core

import (
	"sync"
	"testing"

	"grminer/internal/datagen"
	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
	"grminer/internal/store"
)

var (
	gateOnce sync.Once
	gateG    *graph.Graph
	gateSt   *store.Store
	gateOpt  Options
)

// gateFixture builds the shared mining input: a Pokec-like graph small
// enough for minutes-long CI gates but wide enough (6 node attributes, one
// edge attribute) to exercise every descriptor block.
func gateFixture(b *testing.B) {
	b.Helper()
	gateOnce.Do(func() {
		gateG = gateGraph()
		gateSt = store.Build(gateG)
		gateOpt = Options{
			MinSupp:      gateG.NumEdges() / 200,
			MinScore:     0.5,
			K:            50,
			DynamicFloor: true,
		}
	})
}

// gateGraph generates the fixture graph; each call returns a fresh copy.
func gateGraph() *graph.Graph {
	cfg := datagen.DefaultPokecConfig()
	cfg.Nodes = 1500
	cfg.AvgOutDegree = 6
	return datagen.Pokec(cfg)
}

// gateEngine builds a fresh incremental engine over a private copy of the
// fixture graph (engines own and mutate their graph).
func gateEngine(b *testing.B, opt Options) *Incremental {
	b.Helper()
	inc, err := NewIncremental(gateGraph(), opt)
	if err != nil {
		b.Fatal(err)
	}
	return inc
}

// gateBatch converts edges [from, to) of g into a balanced mixed batch: the
// same edges as insertions and retractions, so applying it is a state
// no-op (retractions resolve against the pre-batch edge set, insertions
// re-add identical edges).
func gateBatch(g *graph.Graph, from, to int) Batch {
	b := Batch{
		Ins: make([]EdgeInsert, 0, to-from),
		Del: make([]EdgeDelete, 0, to-from),
	}
	for e := from; e < to; e++ {
		vals := append([]graph.Value(nil), g.EdgeValues(e)...)
		b.Ins = append(b.Ins, EdgeInsert{Src: g.Src(e), Dst: g.Dst(e), Vals: vals})
		b.Del = append(b.Del, EdgeDelete{Src: g.Src(e), Dst: g.Dst(e), Vals: vals})
	}
	return b
}

// BenchmarkApplyBatch is the gate's end-to-end dynamic-path benchmark: one
// mixed batch through Incremental.ApplyBatch, including recount, scoped
// re-mine, and merge. The "compaction" variant deletes (and re-inserts) a
// quarter of the edge set per iteration, so every iteration drives the store
// through a tombstone compaction — the path that used to re-allocate the
// full pool map. Both retract, and a retraction's witness keeps RIGHT off
// the posting bitmaps below it; the "insert" variant applies insert-only
// batches, the scoped re-mine whose descents hand bitmaps down.
func BenchmarkApplyBatch(b *testing.B) {
	gateFixture(b)
	b.Run("mixed", func(b *testing.B) {
		inc := gateEngine(b, gateOpt)
		batch := gateBatch(gateG, 0, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := inc.ApplyBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("insert", func(b *testing.B) {
		inc, batches := gateInsertEngine(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%len(batches) == 0 {
				// The held-out edges ran out: rebuild off the clock.
				b.StopTimer()
				inc, batches = gateInsertEngine(b)
				b.StartTimer()
			}
			if _, _, err := inc.ApplyBatch(batches[i%len(batches)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compaction", func(b *testing.B) {
		inc := gateEngine(b, gateOpt)
		// The batch's insertions land before its deletions tombstone, so at
		// deletion time the store holds E+n rows; n = E/3 + 32 tombstones
		// then cross the store's compaction threshold (dead ≥ rows/4, ≥ 32)
		// within the batch, every iteration. The paired insertions restore
		// the edge set for the next iteration.
		n := gateG.NumEdges()/3 + 32
		batch := gateBatch(gateG, 0, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := inc.ApplyBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// gateHeldOut is the insert benchmark's held-out edge count: ten 64-edge
// batches, so the CI gate's ten fixed iterations run on one engine.
const gateHeldOut = 640

// gateInsertEngine builds a fresh engine over the fixture graph less its
// last gateHeldOut edges, and returns them as 64-edge insert-only batches.
func gateInsertEngine(b *testing.B) (*Incremental, []Batch) {
	b.Helper()
	full := gateGraph()
	kept := full.NumEdges() - gateHeldOut
	g := graph.MustNew(full.Schema(), full.NumNodes())
	for v := 0; v < full.NumNodes(); v++ {
		if err := g.SetNodeValues(v, full.NodeValues(v)...); err != nil {
			b.Fatal(err)
		}
	}
	var batches []Batch
	//grlint:ignore deadedge a freshly generated graph has no dead edges
	for e := 0; e < full.NumEdges(); e++ {
		vals := append([]graph.Value(nil), full.EdgeValues(e)...)
		if e < kept {
			if _, err := g.AddEdge(full.Src(e), full.Dst(e), vals...); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if (e-kept)%64 == 0 {
			batches = append(batches, Batch{})
		}
		last := &batches[len(batches)-1]
		last.Ins = append(last.Ins, EdgeInsert{Src: full.Src(e), Dst: full.Dst(e), Vals: vals})
	}
	inc, err := NewIncremental(g, gateOpt)
	if err != nil {
		b.Fatal(err)
	}
	return inc, batches
}

// BenchmarkRecount isolates the per-batch pool maintenance: the tracked-pool
// delta recount (the 256-row batch marked into value bitmaps in four 64-row
// chunks, every pool entry ANDed against each) plus the witness collection
// the scoped re-mine narrows its walk by. Passing the same live rows as
// inserted and doomed leaves every count where it started, so iterations
// are identical work on identical state; the bitmaps are allocated with the
// pool, so the recount itself allocates nothing.
func BenchmarkRecount(b *testing.B) {
	gateFixture(b)
	inc := gateEngine(b, gateOpt)
	rows := make([]int32, 0, 128)
	for e := int32(0); int(e) < inc.st.NumRows() && len(rows) < cap(rows); e++ {
		if inc.st.Alive(e) {
			rows = append(rows, e)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc.pool.recount(rows, rows, nil)
		collectWitnessesInto(&inc.wit, inc.st, rows, rows)
	}
}

// BenchmarkMineStatic is the gate's batch-mine benchmark: a full GRMiner(k)
// run. The nhp variant exercises the blocker tables and homophily scans;
// lift additionally drives the |E(r)| memo (rCounts); exactgen drives the
// ExactGenerality verdict cache. Those three pin the sequential walk (width
// 1). parallel is exactgen fanned out over two workers: its per-mine bitmap
// index, the first-level plan read off it, and the per-worker scratch.
func BenchmarkMineStatic(b *testing.B) {
	gateFixture(b)
	run := func(b *testing.B, opt Options, width int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := mineStore(gateSt, opt, width); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nhp", func(b *testing.B) {
		run(b, gateOpt, 1)
	})
	b.Run("lift", func(b *testing.B) {
		opt := gateOpt
		opt.Metric = metrics.LiftMetric
		opt.MinScore = 1
		opt.DynamicFloor = false
		run(b, opt, 1)
	})
	b.Run("exactgen", func(b *testing.B) {
		opt := gateOpt
		opt.ExactGenerality = true
		run(b, opt, 1)
	})
	b.Run("parallel", func(b *testing.B) {
		opt := gateOpt
		opt.ExactGenerality = true
		run(b, opt, 2)
	})
}

// countsRecorder is an in-process worker that keeps a copy of the last
// round-2 request it answered, so a benchmark can replay a request the
// coordinator really sent.
type countsRecorder struct {
	*WorkerState
	spec WorkerSpec
	last []gr.GR
}

func (r *countsRecorder) Counts(grs []gr.GR) ([]metrics.Counts, error) {
	r.last = append(r.last[:0], grs...)
	return r.WorkerState.Counts(grs)
}

// gateSharded builds an in-process 2-shard incremental engine over a
// private copy of the fixture graph, returning the shard workers too.
func gateSharded(b *testing.B) (*IncrementalSharded, []*countsRecorder) {
	b.Helper()
	var workers []*countsRecorder
	build := WorkerBuilder(func(spec WorkerSpec) (ShardWorker, error) {
		w, err := NewWorkerState(spec)
		if err != nil {
			return nil, err
		}
		rec := &countsRecorder{WorkerState: w, spec: spec}
		workers = append(workers, rec)
		return rec, nil
	})
	inc, err := NewIncrementalShardedFrom(gateGraph(), gateOpt, ShardOptions{Shards: 2}, build)
	if err != nil {
		b.Fatal(err)
	}
	return inc, workers
}

// BenchmarkWorkerCounts isolates the round-2 exact-count kernel: one shard
// answering the request the coordinator sent it for a mixed batch, against
// a store carrying that batch's tombstones. The kernel's scratch is reused
// across calls, so allocs/op is the reply slice alone, whatever the number
// of GRs.
func BenchmarkWorkerCounts(b *testing.B) {
	gateFixture(b)
	inc, workers := gateSharded(b)
	defer inc.Close()
	if _, _, err := inc.ApplyBatch(gateBatch(gateG, 0, 64)); err != nil {
		b.Fatal(err)
	}
	w := workers[0]
	req := append([]gr.GR(nil), w.last...)
	if len(req) == 0 || w.st.NumRows() == w.st.NumEdges() {
		b.Fatalf("fixture lacks a round-2 request (%d GRs) or tombstones", len(req))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.WorkerState.Counts(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedApplyBatch is the sharded counterpart of
// BenchmarkApplyBatch/mixed: one state-neutral mixed batch through an
// in-process 2-shard IncrementalSharded — routing, worker ingest, round-2
// counts, and the union merge.
func BenchmarkShardedApplyBatch(b *testing.B) {
	gateFixture(b)
	inc, _ := gateSharded(b)
	defer inc.Close()
	batch := gateBatch(gateG, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := inc.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkerCheckpoint is the checkpoint kernel a supervisor pays
// every CheckpointInterval batches and a replacement pays on failover: one
// shard's Checkpoint plus NewWorkerStateFromCheckpoint, on a seeded worker
// churned by four mixed batches and holding a maintained pool. The
// worker's graph and store carry dead edges, which the blob leaves out:
// it lists the live edges only, and the restore rebuilds the store.
func BenchmarkWorkerCheckpoint(b *testing.B) {
	gateFixture(b)
	inc, workers := gateSharded(b)
	defer inc.Close()
	for i := 0; i < 4; i++ {
		if _, _, err := inc.ApplyBatch(gateBatch(gateG, 64*i, 64*(i+1))); err != nil {
			b.Fatal(err)
		}
	}
	w := workers[0]
	if !w.seeded || w.pool.len() == 0 || !w.g.HasDeadEdges() {
		b.Fatalf("fixture worker not churned (seeded %v, %d pool entries, dead edges %v)",
			w.seeded, w.pool.len(), w.g.HasDeadEdges())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := w.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := NewWorkerStateFromCheckpoint(w.spec, blob); err != nil {
			b.Fatal(err)
		}
	}
}
