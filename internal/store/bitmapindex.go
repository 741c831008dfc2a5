package store

import (
	"runtime"

	"grminer/internal/graph"
	"grminer/internal/sched"
)

// BitmapIndex is the live-row bitmap index: for each (side, attribute,
// value), the packed set of live EArray rows carrying the value (null is
// never indexed and reads as the empty set). Bitmaps are owned by the index
// and read-only to callers. It comes in two forms:
//
//   - complete (BuildBitmapIndex): every bitmap is built up front, and a
//     value no live row carries stays nil, the empty set. It never builds
//     on read, so concurrent readers are safe while the store is not
//     mutated. The store's postings (EnablePostings) are a complete index
//     of every value that the store keeps live-exact; a fanned-out static
//     mine builds one per mine without the values below its minSupp, plans
//     its first level off it and shares it with every worker.
//   - lazy (NewBitmapIndex, for sequential static mines over stores without
//     postings): each bitmap is filled on first request in one pass over
//     the rows and allocated once at exactly ⌈NumRows/64⌉ words, so a
//     caller that probes a few dozen values pays for those alone. It reads
//     the rows as they are at that request and is never updated: it is
//     valid only while the store is not mutated, and single-owner. A static
//     mine builds one per miner and drops it when the mine returns.
type BitmapIndex struct {
	s       *Store
	lazy    bool
	l, w, r [][]Bitmap // [attr][val] -> live rows
}

// NewBitmapIndex returns an empty lazy index over s. No bitmap is built yet.
func NewBitmapIndex(s *Store) *BitmapIndex {
	x := newIndex(s)
	x.lazy = true
	return x
}

// BuildBitmapIndex returns a complete index over s's live rows, leaving out
// every value fewer than minSupp live rows carry (minSupp ≤ 1 keeps every
// carried value), and the number of values it left out. On the destination
// side of a homophily attribute it also keeps every value at least minSupp
// live rows carry as a source: a homophily-effect count reads R(a = l[a])
// at such a source value, whatever its destination support. A mine reads no
// other value after planning: every condition of an examined GR, and of
// each of its generalisations, carries at least minSupp live rows.
//
// Each (side, attribute) column is filled independently, so the columns
// fan out over GOMAXPROCS workers through sched.Run; the index and the cut
// count do not depend on the width. Under a minSupp, a size pass counts
// each value's live rows first; then one pass over the rows from the
// highest down allocates each kept bitmap once, on the highest live row
// carrying its value: at that row's word plus an eighth of headroom for the
// rows a maintained index gains by appends (Bitmap.grow's rule). O(rows ×
// dims) work in all.
func BuildBitmapIndex(s *Store, minSupp int) (*BitmapIndex, int) {
	x := newIndex(s)
	type task struct {
		side byte
		attr int
	}
	var tasks []task
	for _, side := range []byte("LWR") {
		table, _, _ := x.column(side)
		for attr := range table {
			tasks = append(tasks, task{side, attr})
		}
	}
	cuts := make([]int, len(tasks))
	sched.Run(runtime.GOMAXPROCS(0), len(tasks), func(int) int { return 0 }, nil, func(_, i int) {
		cuts[i] = x.fillColumn(tasks[i].side, tasks[i].attr, minSupp)
	})
	cut := 0
	for _, c := range cuts {
		cut += c
	}
	return x, cut
}

// fillColumn builds every kept bitmap of side's column of attr (see
// BuildBitmapIndex) and returns the number of carried values it left out.
// It writes that column's bitmaps only, so columns fill concurrently.
func (x *BitmapIndex) fillColumn(side byte, attr, minSupp int) int {
	s := x.s
	table, vals, idx := x.column(side)
	bms := table[attr]
	cut := 0
	var keep []bool // nil keeps every carried value
	if minSupp > 1 {
		keep = make([]bool, len(bms))
		sizes := x.liveSizes(side, attr)
		var src []int
		if side == 'R' && s.g.Schema().Node[attr].Homophily {
			src = x.liveSizes('L', attr)
		}
		for v := 1; v < len(sizes); v++ {
			keep[v] = sizes[v] >= minSupp || src != nil && src[v] >= minSupp
			if sizes[v] > 0 && !keep[v] {
				cut++
			}
		}
	}
	for row := len(s.ePtr) - 1; row >= 0; row-- {
		i := row
		if idx != nil {
			i = int(idx[row])
		}
		v := vals[i*len(table)+attr]
		if v == graph.Null || !s.Alive(int32(row)) || keep != nil && !keep[v] {
			continue
		}
		if bms[v] == nil {
			bms[v] = Bitmap(nil).grow(row>>6 + 1)
		}
		bms[v][row>>6] |= 1 << uint(row&63)
	}
	return cut
}

// liveSizes counts, per value, the live rows carrying it in side's column
// of attr.
func (x *BitmapIndex) liveSizes(side byte, attr int) []int {
	s := x.s
	table, vals, idx := x.column(side)
	sizes := make([]int, len(table[attr]))
	for row := range s.ePtr {
		i := row
		if idx != nil {
			i = int(idx[row])
		}
		if s.Alive(int32(row)) {
			sizes[vals[i*len(table)+attr]]++
		}
	}
	return sizes
}

func newIndex(s *Store) *BitmapIndex {
	schema := s.g.Schema()
	return &BitmapIndex{
		s: s,
		l: newBitmaps(schema.Node),
		w: newBitmaps(schema.Edge),
		r: newBitmaps(schema.Node),
	}
}

func newBitmaps(attrs []graph.Attribute) [][]Bitmap {
	out := make([][]Bitmap, len(attrs))
	for a := range attrs {
		out[a] = make([]Bitmap, attrs[a].Domain+1)
	}
	return out
}

// column returns side's bitmap table and the store's value column behind
// it: row e's value of attribute attr sits at vals[idx[e]*len(table)+attr],
// or at vals[e*len(table)+attr] when idx is nil (edge values are per row).
func (x *BitmapIndex) column(side byte) (table [][]Bitmap, vals []graph.Value, idx []int32) {
	s := x.s
	switch side {
	case 'W':
		return x.w, s.eVals, nil
	case 'R':
		return x.r, s.rVals, s.ePtr
	default:
		return x.l, s.lVals, s.eSrc
	}
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
// request. Null, and a value no row of a complete index carries, stay the
// empty set: a complete index never builds on read.
func (x *BitmapIndex) fill(side byte, attr int, val graph.Value) Bitmap {
	if val == graph.Null || !x.lazy {
		return nil
	}
	s := x.s
	table, vals, idx := x.column(side)
	b := make(Bitmap, (s.NumRows()+63)/64)
	for row := range s.ePtr {
		i := row
		if idx != nil {
			i = int(idx[row])
		}
		if vals[i*len(table)+attr] == val && s.Alive(int32(row)) {
			b[row>>6] |= 1 << uint(row&63)
		}
	}
	table[attr][val] = b
	return b
}
