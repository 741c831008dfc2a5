package store

import (
	"math/bits"

	"grminer/internal/graph"
)

// Bitmap is a packed set of EArray row ids (bit row%64 of word row/64). The
// tail is implicitly zero: a bitmap only grows to the highest row it holds.
type Bitmap []uint64

// Has reports whether row is in the set.
func (b Bitmap) Has(row int32) bool {
	w := int(row >> 6)
	return w < len(b) && b[w]&(1<<uint(row&63)) != 0
}

// Count returns the set size.
func (b Bitmap) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// RowsInto appends the set's rows, ascending, into dst[:0].
func (b Bitmap) RowsInto(dst []int32) []int32 {
	dst = dst[:0]
	for i, w := range b {
		base := int32(i << 6)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// AndInto writes the intersection of a and b into dst[:0] and returns it.
func AndInto(dst, a, b Bitmap) Bitmap {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if cap(dst) < n {
		dst = make(Bitmap, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		dst[i] = a[i] & b[i]
	}
	return dst
}

// AndCount returns the size of the intersection of a and b without
// materialising it — the last step of a multi-way intersect-and-count.
func AndCount(a, b Bitmap) int {
	if len(b) < len(a) {
		a = a[:len(b)]
	}
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w & b[i])
	}
	return n
}

// Set returns b with row added, growing the word array as needed. Callers
// owning scratch bitmaps (the miner's partition bitmaps) build them with Set
// and undo with Clear.
func (b Bitmap) Set(row int32) Bitmap {
	w := int(row >> 6)
	for len(b) <= w {
		b = append(b, 0)
	}
	b[w] |= 1 << uint(row&63)
	return b
}

// Clear removes row from the set. The row's word must exist (the bit was
// previously Set).
func (b Bitmap) Clear(row int32) {
	b[row>>6] &^= 1 << uint(row&63)
}

// EnablePostings builds (or rebuilds) the store's maintained BitmapIndex —
// its postings — over its current rows and keeps it live-exact from now on:
// AppendEdges sets a new row's bits, RemoveEdges clears a tombstoned row's
// bits at once, and compaction rebuilds the index against the renumbered
// rows (the store tests check every bitmap against a brute-force scan
// after arbitrary insert/delete sequences). The incremental engines keep
// postings: their scoped re-mine reads each first-level partition's size
// and rows off a bitmap instead of counting-sorting the full edge set per
// dimension, deeper levels intersect bitmaps word-wide, and shard workers
// count round-2 queries on them. Idempotent rebuild; O(rows × dims).
func (s *Store) EnablePostings() {
	x := NewBitmapIndex(s)
	x.lazy = false // filled here, then kept live-exact by the store
	s.post = x
	for row := int32(0); int(row) < len(s.ePtr); row++ {
		if s.Alive(row) {
			x.mark(row, true)
		}
	}
}

// Postings returns the store's maintained BitmapIndex, or nil when postings
// are off. The index and its bitmaps are owned by the store: callers must
// not mutate them, and any store mutation invalidates bitmaps read earlier
// (RemoveEdges may compact, which replaces the index).
func (s *Store) Postings() *BitmapIndex { return s.post }

// mark sets (live) or clears one row's bits in a maintained index.
func (x *BitmapIndex) mark(row int32, live bool) {
	s := x.s
	for a := range x.l {
		flip(x.l[a], s.LVal(row, a), row, live)
		flip(x.r[a], s.RVal(row, a), row, live)
	}
	for a := range x.w {
		flip(x.w[a], s.EVal(row, a), row, live)
	}
}

// flip sets (live) or clears row in the bitmap of value v; null values are
// never indexed.
func flip(bms []Bitmap, v graph.Value, row int32, live bool) {
	switch {
	case v == graph.Null:
	case live:
		bms[v] = bms[v].Set(row)
	default:
		bms[v].Clear(row)
	}
}
