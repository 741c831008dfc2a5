package store

import "grminer/internal/graph"

// BitmapIndex is a lazily filled live-row bitmap index: the LBitmap/WBitmap/
// RBitmap accessors of a postings-enabled store, built on demand over any
// store, posting lists or not. Each (side, attribute, value) bitmap is
// filled on first request in one pass over the rows and allocated once at
// exactly ⌈NumRows/64⌉ words, so a caller that probes a few dozen values
// pays for those alone, never for a full posting build or for append growth.
//
// The index reads the store's rows as they are when a bitmap is first
// requested and is never updated: it is valid only while the store is not
// mutated. It is single-owner (not safe for concurrent use). A static mine
// builds one per miner and drops it when the mine returns; never keep one
// across store mutations.
type BitmapIndex struct {
	s       *Store
	l, w, r [][]Bitmap // [attr][val] -> live rows; nil until first request
}

// NewBitmapIndex returns an empty index over s. No bitmap is built yet.
func NewBitmapIndex(s *Store) *BitmapIndex {
	schema := s.g.Schema()
	return &BitmapIndex{
		s: s,
		l: newPostingBitmaps(schema.Node),
		w: newPostingBitmaps(schema.Edge),
		r: newPostingBitmaps(schema.Node),
	}
}

// NumEdges returns the store's live row count.
func (x *BitmapIndex) NumEdges() int { return x.s.NumEdges() }

// LBitmap returns the live rows whose source node carries val on node
// attribute attr. Like the posting bitmaps, null is never indexed: a null
// val yields the empty set. The bitmap is owned by the index.
func (x *BitmapIndex) LBitmap(attr int, val graph.Value) Bitmap {
	return x.get(x.l, x.s.lVals, x.s.eSrc, len(x.s.g.Schema().Node), attr, val)
}

// WBitmap is LBitmap for edge attribute attr.
func (x *BitmapIndex) WBitmap(attr int, val graph.Value) Bitmap {
	return x.get(x.w, x.s.eVals, nil, len(x.s.g.Schema().Edge), attr, val)
}

// RBitmap is LBitmap for the destination side.
func (x *BitmapIndex) RBitmap(attr int, val graph.Value) Bitmap {
	return x.get(x.r, x.s.rVals, x.s.ePtr, len(x.s.g.Schema().Node), attr, val)
}

// get returns (building on first request) the bitmap of table[attr][val].
// Row e's value sits at vals[idx[e]*stride+attr], or vals[e*stride+attr]
// when idx is nil (edge attributes are stored per row).
func (x *BitmapIndex) get(table [][]Bitmap, vals []graph.Value, idx []int32, stride, attr int, val graph.Value) Bitmap {
	if val == graph.Null {
		return nil
	}
	if b := table[attr][val]; b != nil {
		return b
	}
	s := x.s
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
