package core

import (
	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/intern"
	"grminer/internal/metrics"
	"grminer/internal/store"
)

// tracked is one pool entry: a captured GR with its exact counts.
type tracked struct {
	gr       gr.GR
	c        metrics.Counts
	score    float64
	betaMask uint64
}

// densePool is the candidate pool both incremental engines maintain — the
// single store's condition-(1) set and a shard worker's support-gated
// relaxed pool — indexed by interned GR id: a dense entry array plus an
// id→slot table (slot+1; 0 means absent). Ids come from the store's
// persistent dictionary, so slots stay valid across batches and
// compactions; upsert/delete are slice probes instead of the hash of a
// formatted GR key, and a delete swap-removes so recount's iteration stays
// dense.
//
// The pool's keep/drop gate is opt, the capture options of the mines that
// fill it: a pool holds exactly the GRs with LWR ≥ opt.MinSupp and score ≥
// opt.MinScore. The single store captures at (MinSupp, MinScore), a shard
// at (ShardMinSupp, −Inf), so one recount serves both with no branch on
// its owner. Counts.Hom is maintained only when the metric NeedsHom and
// Counts.R only when it NeedsR — the same fields the capture mine fills.
type densePool struct {
	st   *store.Store
	dict *intern.Dict
	opt  Options

	slots   []int32
	entries []tracked
	ids     []intern.GRID
}

// poolChanges is a recount's report of what it changed, reused across
// batches: the ids of kept entries whose counts moved, and the dropped
// entries' ids with their final counts. Shard workers collect it to answer
// the coordinator; the single store needs no report.
type poolChanges struct {
	touched []intern.GRID
	demoted []demotion
}

// demotion is one entry a recount dropped: its id and final counts.
type demotion struct {
	id intern.GRID
	c  metrics.Counts
}

// newDensePool returns an empty pool over st's dictionary, gated by the
// capture options opt.
func newDensePool(st *store.Store, opt Options) densePool {
	return densePool{st: st, dict: st.Dict(), opt: opt}
}

// captureOptions derives the options of pool-building mines from an
// engine's effective options: unbounded, static floor, no generality
// machinery — the capture hook records every candidate with its exact
// counts. Callers set the gate (MinSupp, MinScore) on the result.
func captureOptions(o Options) Options {
	o.K = 0
	o.DynamicFloor = false
	o.ExactGenerality = false
	o.NoGeneralityFilter = false
	o.Parallelism = 0
	return o
}

func (p *densePool) len() int { return len(p.entries) }

// upsert records or refreshes the entry for g and returns its id, and
// whether the entry is new to the pool.
func (p *densePool) upsert(g gr.GR, c metrics.Counts, score float64) (intern.GRID, bool) {
	id := p.dict.GR(g)
	if int(id) < len(p.slots) {
		if s := p.slots[id]; s != 0 {
			t := &p.entries[s-1]
			t.c, t.score = c, score
			return id, false
		}
	} else {
		p.slots = append(p.slots, make([]int32, int(id)+1-len(p.slots))...)
	}
	t := tracked{gr: g, c: c, score: score}
	if p.opt.Metric.NeedsHom {
		t.betaMask = betaMaskOf(p.st.Graph().Schema(), g.L, g.R)
	}
	p.entries = append(p.entries, t)
	p.ids = append(p.ids, id)
	p.slots[id] = int32(len(p.entries))
	return id, true
}

// capture is upsert in the miner's capture-hook shape.
func (p *densePool) capture(g gr.GR, c metrics.Counts, score float64) { p.upsert(g, c, score) }

// deleteAt swap-removes the entry at dense index i. Iterating callers must
// re-examine index i (it now holds the former last entry) instead of
// advancing.
func (p *densePool) deleteAt(i int) {
	id := p.ids[i]
	last := len(p.entries) - 1
	p.entries[i] = p.entries[last]
	p.ids[i] = p.ids[last]
	p.slots[p.ids[i]] = int32(i) + 1
	p.entries = p.entries[:last]
	p.ids = p.ids[:last]
	p.slots[id] = 0
}

// delete removes the entry for id if present.
func (p *densePool) delete(id intern.GRID) {
	if int(id) < len(p.slots) {
		if s := p.slots[id]; s != 0 {
			p.deleteAt(int(s) - 1)
		}
	}
}

// get returns id's tracked entry, if present.
func (p *densePool) get(id intern.GRID) (tracked, bool) {
	if int(id) < len(p.slots) {
		if s := p.slots[id]; s != 0 {
			return p.entries[s-1], true
		}
	}
	return tracked{}, false
}

// reset empties the pool in O(occupied), keeping all allocations.
func (p *densePool) reset() {
	for _, id := range p.ids {
		p.slots[id] = 0
	}
	p.entries = p.entries[:0]
	p.ids = p.ids[:0]
}

// recount delta-updates every pool entry against the batch's inserted and
// doomed rows (deletions are still readable — they tombstone only after this
// pass) and drops entries that no longer pass the gate: a score decayed
// below opt.MinScore, or — deletions only — a support fallen below
// opt.MinSupp. Dropped entries are re-discovered by the scoped re-mine the
// moment a later batch lifts them back over a threshold. Counts stay exact:
// an edge matching l ∧ w moves LW; matching r on top of that moves LWR (and
// by the β-value conflict can never also match l[β]); matching l[β] instead
// moves Hom alongside LW; matching r alone moves R — with inserted rows
// adding and deleted rows subtracting. A non-nil ch is refilled with the
// kept entries whose counts moved and the dropped ones.
func (p *densePool) recount(newRows, delRows []int32, ch *poolChanges) (recounted, dropped int) {
	if ch != nil {
		ch.touched, ch.demoted = ch.touched[:0], ch.demoted[:0]
	}
	needR := p.opt.Metric.NeedsR
	totalE := p.st.NumEdges() - len(delRows)
	for i := 0; i < p.len(); {
		t := &p.entries[i]
		moved := p.delta(t, newRows, 1, needR)
		moved = p.delta(t, delRows, -1, needR) || moved
		t.c.E = totalE
		t.score = p.opt.Metric.Score(t.c)
		if moved {
			recounted++
		}
		if t.score < p.opt.MinScore || t.c.LWR < p.opt.MinSupp {
			// Swap-remove: index i now holds a not-yet-visited entry, so the
			// loop re-examines it instead of advancing.
			if ch != nil {
				ch.demoted = append(ch.demoted, demotion{id: p.ids[i], c: t.c})
			}
			p.deleteAt(i)
			dropped++
			continue
		}
		if moved && ch != nil {
			ch.touched = append(ch.touched, p.ids[i])
		}
		i++
	}
	return recounted, dropped
}

// delta adds sign × (rows' contribution) to t's counts and reports whether
// any count moved.
func (p *densePool) delta(t *tracked, rows []int32, sign int, needR bool) bool {
	st := p.st
	moved := false
	for _, e := range rows {
		if matchOn(st.LVal, e, t.gr.L) && matchOn(st.EVal, e, t.gr.W) {
			t.c.LW += sign
			moved = true
			if matchOn(st.RVal, e, t.gr.R) {
				t.c.LWR += sign
			} else if t.betaMask != 0 && matchHomOn(st, e, t.gr.L, t.betaMask) {
				t.c.Hom += sign
			}
		}
		if needR && matchOn(st.RVal, e, t.gr.R) {
			t.c.R += sign
			moved = true
		}
	}
	return moved
}

// matchOn reports whether edge e satisfies every condition of d under the
// given per-edge accessor (LVal, EVal, or RVal).
func matchOn(val func(int32, int) graph.Value, e int32, d gr.Descriptor) bool {
	for _, c := range d {
		if val(e, c.Attr) != c.Val {
			return false
		}
	}
	return true
}

// matchHomOn is the store-level homophily-effect row test: row e (already
// known to match l ∧ w) counts toward l -w-> l[β] when its destination
// carries the LHS value on every attribute of betaMask.
func matchHomOn(st *store.Store, e int32, l gr.Descriptor, betaMask uint64) bool {
	for a := 0; a < len(st.Graph().Schema().Node); a++ {
		if betaMask&(1<<uint(a)) == 0 {
			continue
		}
		lv, _ := l.Get(a)
		if st.RVal(e, a) != lv {
			return false
		}
	}
	return true
}

// betaMaskOf computes β (Equation 4) as a node-attribute bitmask; shared by
// the in-search miner (miner.betaMask), the pool's delta recount, and the
// round-2 count kernel.
func betaMaskOf(schema *graph.Schema, lhs, rhs gr.Descriptor) uint64 {
	var mask uint64
	for _, rc := range rhs {
		if !schema.Node[rc.Attr].Homophily {
			continue
		}
		if lv, ok := lhs.Get(rc.Attr); ok && lv != rc.Val {
			mask |= 1 << uint(rc.Attr)
		}
	}
	return mask
}
