package store

import (
	"fmt"
	"math/bits"

	"grminer/internal/graph"
)

// Per-(attribute, value) posting lists: for every non-null value of every
// node attribute (on the source and destination side) and every edge
// attribute, the EArray rows carrying it. They exist for the incremental
// engines, whose per-batch scoped re-mine otherwise has to counting-sort the
// full edge set once per dimension just to recover the handful of first-level
// partitions a batch touched — the O(|E| × dims) floor of every Apply.
// With postings enabled a re-mine fetches each affected partition directly.
//
// Invariants (asserted by the store tests against a from-scratch partition
// pass after arbitrary insert/delete sequences):
//
//   - rows[side][attr][val] contains every live row whose side-value for
//     attr is val, plus possibly tombstoned rows (removals do not splice
//     lists — consumers filter through Alive); compaction rebuilds the lists
//     tombstone-free against the renumbered rows.
//   - live[side][attr][val] is the exact live-row count, maintained
//     incrementally on every AppendEdges/RemoveEdges.
//
// Null values are never indexed: descriptors cannot constrain on null, so no
// subtree is keyed by one.
//
// Alongside each list the store keeps a packed Bitmap over the row id space.
// Bitmaps are live-exact — RemoveEdges clears the bit immediately, where the
// list keeps the tombstone until compaction — so deep re-mine levels can
// intersect (attribute, value) row sets with word-wide ANDs instead of
// materialising a partition and filtering it per row.
type postings struct {
	l, w, r    [][][]int32 // [attr][val] -> EArray rows (may include dead rows)
	nl, nw, nr [][]int     // [attr][val] -> live row count
	bl, bw, br [][]Bitmap  // [attr][val] -> live rows, packed
}

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
func (b Bitmap) Set(row int32) Bitmap { return b.set(row) }

// Clear removes row from the set. The row's word must exist (the bit was
// previously Set).
func (b Bitmap) Clear(row int32) { b.clear(row) }

func (b Bitmap) set(row int32) Bitmap {
	w := int(row >> 6)
	for len(b) <= w {
		b = append(b, 0)
	}
	b[w] |= 1 << uint(row&63)
	return b
}

func (b Bitmap) clear(row int32) {
	b[row>>6] &^= 1 << uint(row&63)
}

// EnablePostings builds (or rebuilds) the posting lists for the store's
// current rows and keeps them maintained by AppendEdges/RemoveEdges from now
// on. Idempotent rebuild; O(rows × dims).
func (s *Store) EnablePostings() {
	schema := s.g.Schema()
	p := &postings{
		l: newPostingRows(schema.Node), w: newPostingRows(schema.Edge), r: newPostingRows(schema.Node),
		nl: newPostingCounts(schema.Node), nw: newPostingCounts(schema.Edge), nr: newPostingCounts(schema.Node),
		bl: newPostingBitmaps(schema.Node), bw: newPostingBitmaps(schema.Edge), br: newPostingBitmaps(schema.Node),
	}
	s.post = p
	for row := int32(0); int(row) < len(s.ePtr); row++ {
		if !s.Alive(row) {
			continue
		}
		p.addRow(s, row)
	}
}

// PostingsEnabled reports whether the store maintains posting lists.
func (s *Store) PostingsEnabled() bool { return s.post != nil }

func newPostingRows(attrs []graph.Attribute) [][][]int32 {
	out := make([][][]int32, len(attrs))
	for a := range attrs {
		out[a] = make([][]int32, attrs[a].Domain+1)
	}
	return out
}

func newPostingCounts(attrs []graph.Attribute) [][]int {
	out := make([][]int, len(attrs))
	for a := range attrs {
		out[a] = make([]int, attrs[a].Domain+1)
	}
	return out
}

func newPostingBitmaps(attrs []graph.Attribute) [][]Bitmap {
	out := make([][]Bitmap, len(attrs))
	for a := range attrs {
		out[a] = make([]Bitmap, attrs[a].Domain+1)
	}
	return out
}

// addRow indexes one live row's values.
func (p *postings) addRow(s *Store, row int32) {
	nv := len(s.g.Schema().Node)
	ne := len(s.g.Schema().Edge)
	for a := 0; a < nv; a++ {
		if v := s.LVal(row, a); v != graph.Null {
			p.l[a][v] = append(p.l[a][v], row)
			p.nl[a][v]++
			p.bl[a][v] = p.bl[a][v].set(row)
		}
		if v := s.RVal(row, a); v != graph.Null {
			p.r[a][v] = append(p.r[a][v], row)
			p.nr[a][v]++
			p.br[a][v] = p.br[a][v].set(row)
		}
	}
	for a := 0; a < ne; a++ {
		if v := s.EVal(row, a); v != graph.Null {
			p.w[a][v] = append(p.w[a][v], row)
			p.nw[a][v]++
			p.bw[a][v] = p.bw[a][v].set(row)
		}
	}
}

// removeRow decrements the live counts for a row being tombstoned. The row
// stays inside the lists (filtered by Alive on read) until compaction.
func (p *postings) removeRow(s *Store, row int32) {
	nv := len(s.g.Schema().Node)
	ne := len(s.g.Schema().Edge)
	for a := 0; a < nv; a++ {
		if v := s.LVal(row, a); v != graph.Null {
			p.nl[a][v]--
			p.bl[a][v].clear(row)
		}
		if v := s.RVal(row, a); v != graph.Null {
			p.nr[a][v]--
			p.br[a][v].clear(row)
		}
	}
	for a := 0; a < ne; a++ {
		if v := s.EVal(row, a); v != graph.Null {
			p.nw[a][v]--
			p.bw[a][v].clear(row)
		}
	}
}

// LiveCountL returns the number of live rows whose source node carries val
// on node attribute attr — the size of the first-level LEFT partition keyed
// by (attr, val). Panics if postings are disabled.
func (s *Store) LiveCountL(attr int, val graph.Value) int { return s.post.nl[attr][val] }

// LiveCountR is LiveCountL for the destination side.
func (s *Store) LiveCountR(attr int, val graph.Value) int { return s.post.nr[attr][val] }

// LiveCountW is LiveCountL for edge attribute attr.
func (s *Store) LiveCountW(attr int, val graph.Value) int { return s.post.nw[attr][val] }

// LRows returns a fresh slice of the live rows whose source node carries val
// on node attribute attr. Panics if postings are disabled.
func (s *Store) LRows(attr int, val graph.Value) []int32 {
	return s.filterLive(s.post.l[attr][val], s.post.nl[attr][val])
}

// RRows is LRows for the destination side.
func (s *Store) RRows(attr int, val graph.Value) []int32 {
	return s.filterLive(s.post.r[attr][val], s.post.nr[attr][val])
}

// WRows is LRows for edge attribute attr.
func (s *Store) WRows(attr int, val graph.Value) []int32 {
	return s.filterLive(s.post.w[attr][val], s.post.nw[attr][val])
}

// LRowsInto is LRows appending into dst[:0]; per-batch re-mine loops reuse
// one scratch slice across partitions instead of allocating each.
func (s *Store) LRowsInto(dst []int32, attr int, val graph.Value) []int32 {
	return s.filterLiveInto(dst, s.post.l[attr][val], s.post.nl[attr][val])
}

// RRowsInto is LRowsInto for the destination side.
func (s *Store) RRowsInto(dst []int32, attr int, val graph.Value) []int32 {
	return s.filterLiveInto(dst, s.post.r[attr][val], s.post.nr[attr][val])
}

// WRowsInto is LRowsInto for edge attribute attr.
func (s *Store) WRowsInto(dst []int32, attr int, val graph.Value) []int32 {
	return s.filterLiveInto(dst, s.post.w[attr][val], s.post.nw[attr][val])
}

// LBitmap returns the packed live-row set whose source node carries val on
// node attribute attr. The bitmap is live-exact (no tombstones) and owned by
// the store: callers must not mutate it, and any store mutation invalidates
// it. Panics if postings are disabled.
func (s *Store) LBitmap(attr int, val graph.Value) Bitmap { return s.post.bl[attr][val] }

// RBitmap is LBitmap for the destination side.
func (s *Store) RBitmap(attr int, val graph.Value) Bitmap { return s.post.br[attr][val] }

// WBitmap is LBitmap for edge attribute attr.
func (s *Store) WBitmap(attr int, val graph.Value) Bitmap { return s.post.bw[attr][val] }

// filterLive copies the live rows out of a posting list.
func (s *Store) filterLive(rows []int32, live int) []int32 {
	return s.filterLiveInto(make([]int32, 0, live), rows, live)
}

// filterLiveInto copies the live rows out of a posting list into dst[:0].
func (s *Store) filterLiveInto(dst []int32, rows []int32, live int) []int32 {
	dst = dst[:0]
	for _, row := range rows {
		if s.Alive(row) {
			dst = append(dst, row)
		}
	}
	if len(dst) != live {
		// The live counters and the lists are maintained together; diverging
		// means a store invariant broke — fail loudly instead of mining over
		// a wrong partition.
		panic(fmt.Sprintf("store: posting list holds %d live rows, counter says %d", len(dst), live))
	}
	return dst
}
