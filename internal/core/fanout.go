package core

import (
	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/intern"
	"grminer/internal/metrics"
	"grminer/internal/store"
)

// The capture-walk fan-out. Every walk that maintains a pool — the
// witness-scoped re-mine, the incremental engine's full re-mines and a
// shard worker's offer mines — splits at the SFDF tree's first level into
// independent RIGHT, EDGE and LEFT subtrees, the decomposition the static
// parallel mine runs (parallel.go), and runs them through runTasks on the
// engine's width workers.
//
// The walk's result must not depend on the schedule: the pool's entry
// order, the store dictionary's GR ids, a shard's IngestReply deltas and
// its checkpoint bytes all equal the sequential walk's. A replacement shard
// worker replays the routed-batch log and must hand out the very pool
// handles the coordinator mirrors, so any schedule-dependent id would break
// failover. Three rules keep it so:
//
//   - The store dictionary stays read-only while workers run. Each worker's
//     scratch interns into a private dictionary (a capture walk interns
//     only for its |E(r)| memo), and workers read the store dictionary only
//     through Dict.Lookup.
//   - A GR the pool already tracks is updated in place by the one worker
//     whose subtree holds it: every GR lies in exactly one first-level
//     subtree, so no two workers write the same entry, and an in-place
//     update neither moves an entry nor interns anything.
//   - Everything else a worker captures — the new entrants, and every
//     capture of a full walk — is buffered per task and replayed after the
//     workers finish, task by task in the sequential walk's order. The
//     replay is the only place the pool grows and the dictionary interns,
//     so both see exactly the sequence of the sequential walk.
//
// The width comes from GOMAXPROCS, not from an option: the output is the
// same at every width, so there is nothing to choose.

// captured is one buffered capture: a GR with its exact counts and score.
type captured struct {
	g     gr.GR
	c     metrics.Counts
	score float64
}

// fanOut is one engine's capture-walk state: the store, the capture
// options, and up to width workers, created on first use and kept for the
// engine's lifetime. Worker 0 runs on the engine's own scratch, so the
// engine holds width scratches in total. Single-owner, like the engine.
type fanOut struct {
	st    *store.Store
	opt   Options
	width int
	ws    []*fanWorker
	tasks []parTask
	order []int32
	// pool, during a walk that maintains one in place (the scoped
	// re-mine), is that pool; nil buffers every capture.
	pool *densePool
}

// fanWorker is one worker of a fanOut: a miner on a private scratch, its
// capture buffer, and the ids it updated in place (a shard worker reports
// them as deltas).
type fanWorker struct {
	f       *fanOut
	m       *miner
	caps    []captured
	touched []intern.GRID
}

// privateScratch returns a scratch over st's pair layout with a dictionary
// of its own.
func privateScratch(st *store.Store) *minerScratch {
	return newMinerScratch(intern.NewDict(st.Dict().Layout()))
}

func newFanOut(st *store.Store, opt Options, scr *minerScratch, width int) *fanOut {
	f := &fanOut{st: st, opt: opt, width: max(width, 1)}
	f.addWorker(scr)
	return f
}

func (f *fanOut) addWorker(scr *minerScratch) {
	w := &fanWorker{f: f, m: newMinerScr(f.st, f.opt, scr)}
	w.m.capture = w.capture
	f.ws = append(f.ws, w)
}

// start begins a walk on worker 0, which plans the walk's tasks, and
// returns it.
func (f *fanOut) start(wit *witnesses, bound *OfferBound) *fanWorker {
	f.ws[0].begin(wit, bound)
	return f.ws[0]
}

// grow begins worker 0's walk on as many further workers as n tasks can
// keep busy, creating missing ones on scratches with private
// dictionaries, and returns the walk's workers.
func (f *fanOut) grow(n int) []*fanWorker {
	n = min(f.width, max(n, 1))
	w0 := f.ws[0].m
	for i := 1; i < n; i++ {
		if i == len(f.ws) {
			f.addWorker(privateScratch(f.st))
		}
		f.ws[i].begin(w0.wit, w0.bound)
	}
	return f.ws[:n]
}

// begin prepares the worker's miner for one walk over the current store.
func (w *fanWorker) begin(wit *witnesses, bound *OfferBound) {
	m := w.m
	m.scr.reset()
	m.stats = Stats{}
	m.totalE = w.f.st.NumEdges()
	m.wit, m.bound = wit, bound
	if wit != nil {
		root := m.witLevel(0)
		root.set = root.set[:0]
		for i := range wit.edges {
			root.set = append(root.set, int32(i))
		}
	}
}

// capture is every worker miner's capture hook: update a GR the walk's
// pool tracks in place, buffer anything else.
func (w *fanWorker) capture(g gr.GR, c metrics.Counts, score float64) {
	if p := w.f.pool; p != nil {
		if id, t := p.lookup(g); t != nil {
			t.c, t.score = c, score
			w.touched = append(w.touched, id)
			return
		}
	}
	w.caps = append(w.caps, captured{g: g, c: c, score: score})
}

// run fans f.tasks out over the workers the walk began (ws), adds their
// work counters to stats, and replays the buffered captures through emit in
// task order. A task without rows is a scoped one: its worker narrows the
// witness set to the subtree and reads its rows off the store's postings.
// keep retains the capture buffers' capacity for the next walk — the
// scoped re-mine's few entrants per batch — while a full walk, which
// buffers the whole pool, frees them.
func (f *fanOut) run(ws []*fanWorker, all []int32, sr []int, emit func(gr.GR, metrics.Counts, float64), stats *Stats, keep bool) {
	f.order = runTasks(len(ws), f.tasks, f.order, func(i int, t *parTask) {
		w := ws[i]
		rows := t.rows
		if rows == nil {
			w.m.rootWitnesses(t)
			rows = rootBitmap(f.st.Postings(), t).RowsInto(w.m.buffer(1, t.size))
		}
		t.worker, t.lo = int32(i), int32(len(w.caps))
		w.m.walkTask(t, rows, all, sr)
		t.hi = int32(len(w.caps))
	})
	for _, w := range ws {
		addStats(stats, &w.m.stats)
	}
	for i := range f.tasks {
		t := &f.tasks[i]
		for _, c := range ws[t.worker].caps[t.lo:t.hi] {
			emit(c.g, c.c, c.score)
		}
	}
	for _, w := range ws {
		if keep {
			clear(w.caps)
			w.caps = w.caps[:0]
		} else {
			w.caps = nil
		}
	}
	clear(f.tasks)
	f.tasks = f.tasks[:0]
}

// full runs a capture walk over the whole SFDF tree, split into buildTasks'
// first-level partitions, and replays every capture through emit in the
// sequential walk's order. A set bound prunes as in a shard offer mine.
func (f *fanOut) full(bound *OfferBound, emit func(gr.GR, metrics.Counts, float64), stats *Stats) {
	f.pool = nil
	w0 := f.start(nil, bound)
	tasks, all, sr := buildTasks(w0.m, f.tasks[:0])
	f.tasks = tasks
	f.run(f.grow(len(tasks)), all, sr, emit, stats, false)
}

// rootBitmap returns the live-row bitmap of t's first-level partition.
func rootBitmap(idx *store.BitmapIndex, t *parTask) store.Bitmap {
	switch t.block {
	case blockRight:
		return idx.RBitmap(t.attr, t.val)
	case blockEdge:
		return idx.WBitmap(t.attr, t.val)
	default:
		return idx.LBitmap(t.attr, t.val)
	}
}

// rootWitnesses narrows the root witness set to the witnesses that reach
// t's first-level subtree and returns it: those carrying t's value in the
// block's column, less — in a root RIGHT subtree whose score bound rules
// out every candidate — the deleted ones (rightSubtreeAffected).
func (m *miner) rootWitnesses(t *parTask) []int32 {
	wit, lv := m.wit, m.witLevel(1)
	switch t.block {
	case blockRight:
		m.narrow(1, wit.colR(t.attr), t.val)
		if wit.hasDelete(lv.set) && !rightSubtreeAffected(m.opt, t.size, m.st.NumEdges()) {
			lv.set = wit.inserted(lv.set)
		}
	case blockEdge:
		m.narrow(1, wit.colW(t.attr), t.val)
	default:
		m.narrow(1, wit.colL(t.attr), t.val)
	}
	return lv.set
}

// planScoped appends one task per first-level subtree some witness of m's
// walk reaches, in the sequential walk's order, reading each partition's
// size off the store's postings, and returns the tasks with the number of
// subtrees that pass the support threshold.
func planScoped(m *miner, sr []int, tasks []parTask) ([]parTask, int) {
	schema, idx := m.schema, m.st.Postings()
	total := 0
	blocks := [...]struct {
		block taskBlock
		order []int
		attrs []graph.Attribute
	}{
		{blockRight, sr, schema.Node},
		{blockEdge, m.swOrder, schema.Edge},
		{blockLeft, m.slOrder, schema.Node},
	}
	for _, b := range blocks {
		for pos, attr := range b.order {
			for val := graph.Value(1); int(val) <= b.attrs[attr].Domain; val++ {
				t := parTask{block: b.block, attr: attr, pos: pos, val: val}
				if t.size = rootBitmap(idx, &t).Count(); t.size < m.opt.MinSupp {
					continue
				}
				total++
				if len(m.rootWitnesses(&t)) > 0 {
					tasks = append(tasks, t)
				}
			}
		}
	}
	return tasks, total
}
