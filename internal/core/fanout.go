package core

import (
	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/intern"
	"grminer/internal/metrics"
	"grminer/internal/sched"
	"grminer/internal/store"
)

// The capture-walk fan-out. Every walk that maintains a pool — the
// witness-scoped re-mine, the incremental engine's full re-mines and a
// shard worker's offer mines — splits at the SFDF tree's first level into
// independent RIGHT, EDGE and LEFT subtrees, the decomposition the static
// mine fans out over (parallel.go), plans them through the one first-level
// planner (plan) off the store's postings, and runs them through sched.Run
// on the engine's width workers.
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

// walk is every capture walk: it plans the first level on worker 0,
// fans the tasks out over the workers, and replays what they buffered
// through emit in the sequential walk's order. With wit nil it walks the
// whole SFDF tree (seed, non-DeltaSafe and underflow re-mines, shard
// offers); with a witness set it walks only the subtrees some witness
// reaches and narrows every descent (the scoped re-mine). A non-nil pool is
// updated in place for every GR it already tracks, and touched receives
// those ids. A set bound prunes as in a shard offer mine. It returns the
// number of subtrees walked and of subtrees that pass the support
// threshold.
func (f *fanOut) walk(wit *witnesses, pool *densePool, bound *OfferBound, emit func(gr.GR, metrics.Counts, float64), touched *[]intern.GRID, stats *Stats) (walked, total int) {
	f.pool = pool
	f.ws[0].begin(wit, bound)
	m, idx := f.ws[0].m, f.st.Postings()
	var sr []int
	f.tasks, sr, total = m.plan(idx, f.tasks[:0])
	walked = len(f.tasks)
	// The full live edge list is only needed as the base partition (the LW
	// denominator) of root RIGHT subtrees, so walks that reach none skip
	// the O(|E|) gather.
	var all []int32
	if walked > 0 && f.tasks[0].block == blockRight {
		all = f.st.AllEdgesInto(m.scr.allRows)
		m.scr.allRows = all
	}
	ws := f.grow(walked)
	// Any worker may draw the largest subtree, and its first-level rows
	// land in the worker's depth-1 buffer: size every worker's buffer for
	// it up front rather than regrow it task by task.
	largest := 0
	for i := range f.tasks {
		largest = max(largest, f.tasks[i].size)
	}
	for _, w := range ws {
		w.m.buffer(1, largest)
	}
	f.order = sched.Run(len(ws), len(f.tasks), func(i int) int { return f.tasks[i].size }, f.order, func(wi, i int) {
		w, t := ws[wi], &f.tasks[i]
		if wit != nil {
			w.m.rootWitnesses(t)
		}
		t.worker, t.lo = int32(wi), int32(len(w.caps))
		w.m.walkTask(t, idx, all, sr)
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
	// A scoped walk keeps the capture buffers' capacity for the next batch's
	// few entrants; a full walk, which buffers the whole pool, frees them.
	for _, w := range ws {
		if wit != nil {
			clear(w.caps)
			w.caps = w.caps[:0]
		} else {
			w.caps = nil
		}
		if touched != nil {
			*touched = append(*touched, w.touched...)
		}
		w.touched = w.touched[:0]
	}
	clear(f.tasks)
	f.tasks = f.tasks[:0]
	f.pool = nil
	return walked, total
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

// plan appends to tasks one task per first-level subtree of m's walk, in
// the sequential walk's order (root RIGHT, EDGE, then LEFT block;
// positions, then values ascending), reading each partition's size off idx.
// It cuts partitions below MinSupp and, when m has an offer bound, those
// the bound rules out; a scoped walk (m.wit set) also drops subtrees no
// witness reaches. It returns the tasks with the root RHS order they share
// and the number of subtrees that pass the support threshold.
func (m *miner) plan(idx *store.BitmapIndex, tasks []parTask) ([]parTask, []int, int) {
	sr := m.scr.staticSR
	if !m.opt.StaticRHSOrder {
		sr = rhsOrder(m.schema, gr.Descriptor(nil).Has)
	}
	total := 0
	blocks := [...]struct {
		block taskBlock
		order []int
		attrs []graph.Attribute
	}{
		{blockRight, sr, m.schema.Node},
		{blockEdge, m.swOrder, m.schema.Edge},
		{blockLeft, m.slOrder, m.schema.Node},
	}
	for _, b := range blocks {
		for pos, attr := range b.order {
			for val := graph.Value(1); int(val) <= b.attrs[attr].Domain; val++ {
				t := parTask{block: b.block, attr: attr, pos: pos, val: val}
				switch t.size = rootBitmap(idx, &t).Count(); {
				case t.size == 0:
					continue
				case t.size < m.opt.MinSupp:
					m.stats.PrunedSupp++
					continue
				}
				total++
				if m.bound != nil && m.bound.prune(t.size, nil, nil, nil, b.block, attr, val) {
					m.stats.PrunedGlobal++
					continue
				}
				if m.wit == nil || len(m.rootWitnesses(&t)) > 0 {
					tasks = append(tasks, t)
				}
			}
		}
	}
	return tasks, sr, total
}
