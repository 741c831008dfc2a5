package store

import (
	"math/bits"
	"runtime"

	"grminer/internal/graph"
)

// Bitmap is a packed set of EArray row ids (bit row%64 of word row/64). The
// tail is implicitly zero: a bitmap may end before the store's last row.
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

// AndCountInto is AndInto that also returns the intersection's size, in the
// one pass that writes it. dst may alias a or b. Past its capacity dst is
// reallocated to n + n/8 words, grow's rule: the scratch it serves lives as
// long as a maintained index whose bitmaps lengthen a word at a time.
func AndCountInto(dst, a, b Bitmap) (Bitmap, int) {
	n := min(len(a), len(b))
	if cap(dst) < n {
		dst = make(Bitmap, n, n+n/8)
	}
	dst = dst[:n]
	a, b = a[:n], b[:n]
	c := 0
	for i := range dst {
		w := a[i] & b[i]
		dst[i] = w
		c += bits.OnesCount64(w)
	}
	return dst, c
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
	if w >= len(b) {
		b = b.grow(w + 1)
	}
	b[w] |= 1 << uint(row&63)
	return b
}

// grow extends b to n zero words, reallocating past its capacity to
// n + n/8 words. A maintained posting bitmap grows a word at a time as
// rows append: append's doubling would leave up to half of every bitmap
// slack for the store's lifetime, while an exact fit would reallocate
// every bitmap on the next append.
func (b Bitmap) grow(n int) Bitmap {
	if n > cap(b) {
		nb := make(Bitmap, n, n+n/8)
		copy(nb, b)
		return nb
	}
	old := len(b)
	b = b[:n]
	clear(b[old:])
	return b
}

// Clear removes row from the set. The row's word must exist (the bit was
// previously Set).
func (b Bitmap) Clear(row int32) {
	b[row>>6] &^= 1 << uint(row&63)
}

// EnablePostings builds (or rebuilds) the store's maintained BitmapIndex —
// its postings — with BuildBitmapIndex over its current rows, then attaches
// it and keeps it live-exact from now on: Append sets a new row's
// bits, RemoveEdges clears a tombstoned row's bits at once, and compaction
// rebuilds the index against the renumbered rows (the store tests check
// every bitmap against a brute-force scan after arbitrary insert/delete
// sequences). The incremental engines keep postings: their capture walks
// read each first-level partition's size and rows off a bitmap instead of
// counting-sorting the full edge set per dimension, deeper scoped levels
// intersect bitmaps word-wide, and shard workers count round-2 queries on
// them. Idempotent rebuild; O(rows × dims), filled on GOMAXPROCS workers.
func (s *Store) EnablePostings() { s.post, _ = BuildBitmapIndex(s, 1, runtime.GOMAXPROCS(0)) }

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
