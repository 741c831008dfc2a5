package core

import (
	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
	"grminer/internal/store"
)

// bitmapCounter is the exact count kernel over a store.BitmapIndex, serving
// both round-2 Counts on shard workers (the store's maintained postings)
// and the ExactGenerality generalisation checks of mines (the store's
// postings in a capture walk, the static mine's own index). Per GR the
// cost is O(conditions × rows/64): L∧W is intersected once into scratch
// (an empty L∧W is every live row), then intersected-and-counted against
// the R bitmaps for LWR and against the destination-side l[β] bitmaps for
// Hom; R alone is counted when the metric reads it. Only the fields the
// metric reads are filled, so counts sum consistently with in-search
// capture counts.
//
// The value holds reusable scratch — the current L∧W intersection and a
// buffer for deeper multi-way intersections. The zero value is ready; it
// never writes into index-owned bitmaps. Single-owner.
type bitmapCounter struct {
	lw      store.Bitmap // L∧W rows; aliases an index bitmap for one condition
	lwAll   bool         // L = W = ∅: every live row
	lwN     int          // |L∧W|
	lwBuf   store.Bitmap // backing storage for a multi-condition lw
	tmp     store.Bitmap
	operand []store.Bitmap
}

// intersectLW computes g's L∧W row set.
func (k *bitmapCounter) intersectLW(idx *store.BitmapIndex, g gr.GR) {
	k.operand = k.operand[:0]
	for _, c := range g.L {
		k.operand = append(k.operand, idx.LBitmap(c.Attr, c.Val))
	}
	for _, c := range g.W {
		k.operand = append(k.operand, idx.WBitmap(c.Attr, c.Val))
	}
	switch len(k.operand) {
	case 0:
		k.lw, k.lwAll, k.lwN = nil, true, idx.NumEdges()
		return
	case 1:
		k.lw, k.lwN = k.operand[0], k.operand[0].Count()
	default:
		// The chain's last AND counts as it writes.
		a, last := k.operand[0], len(k.operand)-1
		for _, b := range k.operand[1:last] {
			k.lwBuf = store.AndInto(k.lwBuf, a, b)
			a = k.lwBuf
		}
		k.lwBuf, k.lwN = store.AndCountInto(k.lwBuf, a, k.operand[last])
		k.lw = k.lwBuf
	}
	k.lwAll = false
}

// count fills g's counts from the current L∧W intersection, which must be
// g's (intersectLW on g or on a GR with the same L and W).
func (k *bitmapCounter) count(idx *store.BitmapIndex, schema *graph.Schema, m metrics.Metric, g gr.GR) metrics.Counts {
	c := metrics.Counts{E: idx.NumEdges(), LW: k.lwN}
	k.loadR(idx, g.R)
	if c.LW > 0 {
		c.LWR = k.andCount(k.lw, k.lwAll, c.LW, k.operand)
	}
	if m.NeedsR {
		c.R = k.andCount(nil, true, c.E, k.operand)
	}
	if c.LW > 0 && m.NeedsHom {
		// β ≠ ∅ implies L ≠ ∅, so lw is a real intersection here.
		if beta := betaMaskOf(schema, g.L, g.R); beta != 0 {
			k.operand = k.operand[:0]
			for _, lc := range g.L {
				if beta&(1<<uint(lc.Attr)) != 0 {
					k.operand = append(k.operand, idx.RBitmap(lc.Attr, lc.Val))
				}
			}
			c.Hom = k.andCount(k.lw, false, c.LW, k.operand)
		}
	}
	return c
}

// countR returns |E(r)|: the live rows whose destination matches every
// condition of r.
func (k *bitmapCounter) countR(idx *store.BitmapIndex, r gr.Descriptor) int {
	k.loadR(idx, r)
	return k.andCount(nil, true, idx.NumEdges(), k.operand)
}

// loadR sets the operands to r's destination-side bitmaps.
func (k *bitmapCounter) loadR(idx *store.BitmapIndex, r gr.Descriptor) {
	k.operand = k.operand[:0]
	for _, rc := range r {
		k.operand = append(k.operand, idx.RBitmap(rc.Attr, rc.Val))
	}
}

// andCount returns |base ∧ ops…|, where base is every live row when all is
// set and n is |base|.
func (k *bitmapCounter) andCount(base store.Bitmap, all bool, n int, ops []store.Bitmap) int {
	if len(ops) == 0 {
		return n
	}
	if all {
		if len(ops) == 1 {
			return ops[0].Count()
		}
		base, ops = ops[0], ops[1:]
	}
	last := len(ops) - 1
	for _, b := range ops[:last] {
		k.tmp = store.AndInto(k.tmp, base, b)
		base = k.tmp
	}
	return store.AndCount(base, ops[last])
}
