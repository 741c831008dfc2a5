package core

import (
	"math/bits"

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
	// moved[i] carries "some batch row matched entry i" across the chunks
	// of a recount; all false between recounts.
	moved []bool

	// recount's batch value bitmaps, indexed by the dictionary's pair ids:
	// bit i of lwm[p] is set while row i of the chunk being counted
	// carries node pair p on its source or edge pair p on the edge, and
	// bit i of rm[p] while it carries node pair p on its destination.
	// Allocated with the pool and all zero between chunks.
	lwm, rm []uint64
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
	dict := st.Dict()
	pairs := dict.Layout().NumPairs()
	return densePool{st: st, dict: dict, opt: opt, lwm: make([]uint64, pairs), rm: make([]uint64, pairs)}
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
	p.add(id, g, c, score)
	return id, true
}

// lookup returns g's id and the entry the pool tracks for it, or a nil
// entry when g is not tracked. It interns nothing and only reads, so the
// fan-out's workers call it concurrently (each then writes only the
// entries of its own subtree).
func (p *densePool) lookup(g gr.GR) (intern.GRID, *tracked) {
	id, ok := p.dict.Lookup(g)
	if !ok || int(id) >= len(p.slots) || p.slots[id] == 0 {
		return id, nil
	}
	return id, &p.entries[p.slots[id]-1]
}

// add appends a new entry for g under id, whose slot must exist and be
// empty.
func (p *densePool) add(id intern.GRID, g gr.GR, c metrics.Counts, score float64) {
	t := tracked{gr: g, c: c, score: score}
	if p.opt.Metric.NeedsHom {
		t.betaMask = betaMaskOf(p.st.Graph().Schema(), g.L, g.R)
	}
	p.entries = append(p.entries, t)
	p.ids = append(p.ids, id)
	p.moved = append(p.moved, false)
	p.slots[id] = int32(len(p.entries))
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
	p.moved[i] = p.moved[last]
	p.slots[p.ids[i]] = int32(i) + 1
	p.entries = p.entries[:last]
	p.ids = p.ids[:last]
	p.moved = p.moved[:last]
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
	p.moved = p.moved[:0]
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
// kept entries whose counts moved and the dropped ones, in entry order with
// swap-remove revisit.
//
// The batch is counted in words, not rows: newRows ++ delRows is taken in
// chunks of at most 64 rows, each chunk's rows are marked into the value
// bitmaps (markChunk), and an entry's rows in the chunk are the AND of its
// conditions' words — |L|+|W|+|R| ANDs and a few popcounts per entry and
// chunk, whatever the chunk's row count. The last chunk's pass also
// applies the gate.
func (p *densePool) recount(newRows, delRows []int32, ch *poolChanges) (recounted, dropped int) {
	if ch != nil {
		ch.touched, ch.demoted = ch.touched[:0], ch.demoted[:0]
	}
	totalE := p.st.NumEdges() - len(delRows)
	n := len(newRows) + len(delRows)
	// Every chunk but the last only counts, carrying "some row matched" in
	// p.moved; the last (possibly empty) chunk's pass also gates.
	last := (n - 1) / 64 * 64
	for lo := 0; lo < last; lo += 64 {
		all, neg := p.markChunk(newRows, delRows, lo, lo+64, true)
		for i := range p.entries {
			p.moved[i] = p.countChunk(&p.entries[i], all, neg) || p.moved[i]
		}
		p.markChunk(newRows, delRows, lo, lo+64, false)
	}
	all, neg := p.markChunk(newRows, delRows, last, n, true)
	for i := 0; i < p.len(); {
		t := &p.entries[i]
		moved := p.countChunk(t, all, neg) || p.moved[i]
		p.moved[i] = false
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
	p.markChunk(newRows, delRows, last, n, false)
	return recounted, dropped
}

// countChunk adds the marked chunk's contribution to t's counts — rows in
// all, the deleted ones in neg, subtracting — and reports whether any row
// matched l ∧ w, or r when the metric reads R.
func (p *densePool) countChunk(t *tracked, all, neg uint64) bool {
	lay := p.dict.Layout()
	lw := all
	for _, c := range t.gr.L {
		lw &= p.lwm[lay.NodePair(c.Attr, c.Val)]
	}
	for _, c := range t.gr.W {
		lw &= p.lwm[lay.EdgePair(c.Attr, c.Val)]
	}
	needR := p.opt.Metric.NeedsR
	if lw == 0 && !needR {
		return false
	}
	r := all
	for _, c := range t.gr.R {
		r &= p.rm[lay.NodePair(c.Attr, c.Val)]
	}
	t.c.LW += signedPop(lw, neg)
	t.c.LWR += signedPop(lw&r, neg)
	if t.betaMask != 0 {
		hom := lw &^ r
		for _, c := range t.gr.L {
			if t.betaMask&(1<<uint(c.Attr)) != 0 {
				hom &= p.rm[lay.NodePair(c.Attr, c.Val)]
			}
		}
		t.c.Hom += signedPop(hom, neg)
	}
	if needR {
		t.c.R += signedPop(r, neg)
		return lw != 0 || r != 0
	}
	return true
}

// signedPop counts x's rows, the deleted ones (in neg) negatively.
func signedPop(x, neg uint64) int {
	return bits.OnesCount64(x) - 2*bits.OnesCount64(x&neg)
}

// markChunk sets (set) or clears (!set) the value-bitmap words of batch
// positions [lo, hi) of newRows ++ delRows: position lo+i sets bit i of
// the word of each non-null source, destination and edge value of its row
// (a null matches no condition). Clearing walks the same rows, so it costs
// the chunk, never the table. It returns the chunk's row mask and, within
// it, the deleted rows' mask.
func (p *densePool) markChunk(newRows, delRows []int32, lo, hi int, set bool) (all, neg uint64) {
	all = ^uint64(0) >> uint(64-(hi-lo))
	neg = all
	if d := len(newRows) - lo; d > 0 {
		neg = all &^ (uint64(1)<<uint(min(d, 64)) - 1)
	}
	st, lay := p.st, p.dict.Layout()
	schema := st.Graph().Schema()
	for k := lo; k < hi; k++ {
		e := int32(0)
		if k < len(newRows) {
			e = newRows[k]
		} else {
			e = delRows[k-len(newRows)]
		}
		bit := uint64(1) << uint(k-lo)
		for a := range schema.Node {
			if v := st.LVal(e, a); v != graph.Null {
				markWord(&p.lwm[lay.NodePair(a, v)], bit, set)
			}
			if v := st.RVal(e, a); v != graph.Null {
				markWord(&p.rm[lay.NodePair(a, v)], bit, set)
			}
		}
		for a := range schema.Edge {
			if v := st.EVal(e, a); v != graph.Null {
				markWord(&p.lwm[lay.EdgePair(a, v)], bit, set)
			}
		}
	}
	return all, neg
}

// markWord ORs bit into *w, or with !set zeroes it.
func markWord(w *uint64, bit uint64, set bool) {
	if set {
		*w |= bit
	} else {
		*w = 0
	}
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
