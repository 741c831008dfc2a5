package store

import "grminer/internal/graph"

// BitmapIndex is the live-row bitmap index: for each (side, attribute,
// value), the packed set of live EArray rows carrying the value (null is
// never indexed and reads as the empty set). Bitmaps are owned by the index
// and read-only to callers. It comes in two forms:
//
//   - maintained (Store.Postings; see EnablePostings): complete and kept
//     live-exact by the store. It never builds on read, so concurrent
//     readers are safe while the store is not mutated; a nil bitmap is an
//     empty set.
//   - lazy (NewBitmapIndex, for static mines over stores without
//     postings): each bitmap is filled on first request in one pass over the
//     rows and allocated once at exactly ⌈NumRows/64⌉ words, so a caller
//     that probes a few dozen values pays for those alone. It reads the rows
//     as they are at that request and is never updated: it is valid only
//     while the store is not mutated, and single-owner. A static mine builds
//     one per miner and drops it when the mine returns.
type BitmapIndex struct {
	s       *Store
	lazy    bool
	l, w, r [][]Bitmap // [attr][val] -> live rows
}

// NewBitmapIndex returns an empty lazy index over s. No bitmap is built yet.
func NewBitmapIndex(s *Store) *BitmapIndex {
	schema := s.g.Schema()
	return &BitmapIndex{
		s:    s,
		lazy: true,
		l:    newBitmaps(schema.Node),
		w:    newBitmaps(schema.Edge),
		r:    newBitmaps(schema.Node),
	}
}

func newBitmaps(attrs []graph.Attribute) [][]Bitmap {
	out := make([][]Bitmap, len(attrs))
	for a := range attrs {
		out[a] = make([]Bitmap, attrs[a].Domain+1)
	}
	return out
}

// NumEdges returns the store's live row count.
func (x *BitmapIndex) NumEdges() int { return x.s.NumEdges() }

// LBitmap returns the live rows whose source node carries val on node
// attribute attr.
func (x *BitmapIndex) LBitmap(attr int, val graph.Value) Bitmap {
	if b := x.l[attr][val]; b != nil {
		return b
	}
	return x.fill('L', attr, val)
}

// WBitmap is LBitmap for edge attribute attr.
func (x *BitmapIndex) WBitmap(attr int, val graph.Value) Bitmap {
	if b := x.w[attr][val]; b != nil {
		return b
	}
	return x.fill('W', attr, val)
}

// RBitmap is LBitmap for the destination side.
func (x *BitmapIndex) RBitmap(attr int, val graph.Value) Bitmap {
	if b := x.r[attr][val]; b != nil {
		return b
	}
	return x.fill('R', attr, val)
}

// fill builds a lazy index's bitmap of (side, attr, val) on its first
// request. Null, and a value no row of a maintained index carries, stay
// the empty set: a maintained index never builds on read.
func (x *BitmapIndex) fill(side byte, attr int, val graph.Value) Bitmap {
	if val == graph.Null || !x.lazy {
		return nil
	}
	// Row e's value sits at vals[idx[e]*len(table)+attr], or at
	// vals[e*len(table)+attr] when idx is nil (edge values are per row).
	s := x.s
	table, vals, idx := x.l, s.lVals, s.eSrc
	switch side {
	case 'W':
		table, vals, idx = x.w, s.eVals, nil
	case 'R':
		table, vals, idx = x.r, s.rVals, s.ePtr
	}
	stride := len(table)
	b := make(Bitmap, (s.NumRows()+63)/64)
	for row := range s.ePtr {
		i := row
		if idx != nil {
			i = int(idx[row])
		}
		if vals[i*stride+attr] == val && s.Alive(int32(row)) {
			b[row>>6] |= 1 << uint(row&63)
		}
	}
	table[attr][val] = b
	return b
}
