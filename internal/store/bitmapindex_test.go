package store

import (
	"math/rand"
	"slices"
	"testing"

	"grminer/internal/graph"
)

// TestBitmapIndexMatchesPostings pins a fresh index against the maintained
// one: two stores over one graph go through the same random appends,
// removals (leaving tombstones) and a compaction, one with postings and one
// without, and after every phase a fresh BuildBitmapIndex over the plain
// store must serve, for every (side, attribute, value), exactly the
// postings store's live rows — including B's top value, which no node
// carries and which both indexes must leave unbuilt.
func TestBitmapIndexMatchesPostings(t *testing.T) {
	schema := dynSchema(t)
	r := rand.New(rand.NewSource(11))
	const n = 12
	g := graph.MustNew(schema, n)
	for v := 0; v < n; v++ {
		// A draws its full domain plus null; B only 0..3 of 4.
		if err := g.SetNodeValues(v, graph.Value(r.Intn(4)), graph.Value(r.Intn(4))); err != nil {
			t.Fatal(err)
		}
	}
	addEdges := func(k int) {
		for i := 0; i < k; i++ {
			if _, err := g.AddEdge(r.Intn(n), r.Intn(n), graph.Value(r.Intn(3))); err != nil {
				t.Fatal(err)
			}
		}
	}
	addEdges(120)
	post, plain := Build(g), Build(g)
	post.EnablePostings()

	// remove tombstones k random live rows in both stores.
	remove := func(k int) {
		rows := post.AllEdges()
		r.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		rows = rows[:k]
		for _, row := range rows {
			if err := g.RemoveEdge(int(post.EdgeID(row))); err != nil {
				t.Fatal(err)
			}
		}
		if err := post.RemoveEdges(rows); err != nil {
			t.Fatal(err)
		}
		if err := plain.RemoveEdges(rows); err != nil {
			t.Fatal(err)
		}
	}
	appendBoth := func(k int) {
		addEdges(k)
		post.Append()
		plain.Append()
	}

	check := func(phase string) {
		t.Helper()
		if post.NumRows() != plain.NumRows() || post.NumEdges() != plain.NumEdges() {
			t.Fatalf("%s: stores diverged: %d/%d rows, %d/%d live", phase,
				post.NumRows(), plain.NumRows(), post.NumEdges(), plain.NumEdges())
		}
		x, _ := BuildBitmapIndex(plain, 1, 1)
		ref := post.Postings()
		if x.NumEdges() != post.NumEdges() {
			t.Fatalf("%s: index NumEdges %d, want %d", phase, x.NumEdges(), post.NumEdges())
		}
		var got, want []int32
		sides := []struct {
			name       string
			attrs      []graph.Attribute
			fresh, ref func(int, graph.Value) Bitmap
		}{
			{"L", schema.Node, x.LBitmap, ref.LBitmap},
			{"W", schema.Edge, x.WBitmap, ref.WBitmap},
			{"R", schema.Node, x.RBitmap, ref.RBitmap},
		}
		for _, sd := range sides {
			for a, at := range sd.attrs {
				if b := sd.fresh(a, graph.Null); b != nil {
					t.Fatalf("%s: %s(%d, null) = %v, want the empty set", phase, sd.name, a, b)
				}
				for v := graph.Value(1); int(v) <= at.Domain; v++ {
					got, want = sd.fresh(a, v).RowsInto(got), sd.ref(a, v).RowsInto(want)
					if len(got) != len(want) {
						t.Fatalf("%s: %s(%d,%d) holds %d rows, postings %d", phase, sd.name, a, v, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: %s(%d,%d) row %d = %d, postings %d", phase, sd.name, a, v, i, got[i], want[i])
						}
					}
				}
			}
		}
		if x.RBitmap(1, 4) != nil || ref.RBitmap(1, 4) != nil {
			t.Fatalf("%s: an index filled the bitmap of a value no row carries", phase)
		}
	}

	check("build")
	appendBoth(20)
	remove(10)
	check("appends and tombstones")
	rowsBefore := post.NumRows()
	remove(40)
	if post.NumRows() >= rowsBefore {
		t.Fatal("removals never triggered a compaction")
	}
	check("compaction")
	appendBoth(15)
	remove(5)
	check("churn after compaction")
}

// TestBuildBitmapIndexSizing pins the complete index's allocation: each
// bitmap of a value some live row carries is allocated once, on its
// highest live row (tombstoned rows above it do not count), with an eighth
// of headroom, and a value no live row carries stays nil. Under a minSupp,
// a value fewer live rows carry stays nil too and is counted as cut, unless
// it is a value of the homophily attribute A on the destination side that
// at least minSupp live rows carry as a source.
func TestBuildBitmapIndexSizing(t *testing.T) {
	s := tombstonedIndexStore(t)
	schema := s.Graph().Schema()
	for _, minSupp := range []int{1, 60} {
		x, cut := BuildBitmapIndex(s, minSupp, 1)
		sides := []struct {
			name  string
			attrs []graph.Attribute
			table [][]Bitmap
			val   func(int32, int) graph.Value
		}{
			{"L", schema.Node, x.l, s.LVal},
			{"W", schema.Edge, x.w, s.EVal},
			{"R", schema.Node, x.r, s.RVal},
		}
		wantCut := 0
		for _, sd := range sides {
			for a, at := range sd.attrs {
				for v := graph.Value(1); int(v) <= at.Domain; v++ {
					hi, live, asSrc := int32(-1), 0, 0
					for row := int32(0); int(row) < s.NumRows(); row++ {
						if s.Alive(row) && sd.val(row, a) == v {
							hi, live = row, live+1
						}
						if s.Alive(row) && a < len(schema.Node) && s.LVal(row, a) == v {
							asSrc++
						}
					}
					b := sd.table[a][v]
					srcKept := sd.name == "R" && at.Homophily && asSrc >= minSupp
					if live > 0 && live < minSupp && !srcKept {
						wantCut++
						hi = -1
					}
					if hi < 0 {
						if b != nil {
							t.Fatalf("minSupp %d: %s(%d,%d): %d live rows carry it, yet it has %d words", minSupp, sd.name, a, v, live, len(b))
						}
						continue
					}
					want := int(hi>>6) + 1
					if len(b) != want || cap(b) != want+want/8 || b.Count() != live {
						t.Fatalf("minSupp %d: %s(%d,%d): len %d cap %d count %d, want len %d cap %d count %d",
							minSupp, sd.name, a, v, len(b), cap(b), b.Count(), want, want+want/8, live)
					}
				}
			}
		}
		if cut != wantCut {
			t.Fatalf("minSupp %d: cut %d values, want %d", minSupp, cut, wantCut)
		}
		if minSupp > 1 && cut == 0 {
			t.Fatalf("minSupp %d cut no value; the fixture no longer exercises the cut", minSupp)
		}
		if x.r[1][4] != nil || x.l[1][4] != nil {
			t.Fatal("the bitmap of a value no node carries was built")
		}
	}
}

// TestBuildBitmapIndexWidthInvariant: the columns of a complete index fill
// concurrently, so the bitmaps (lengths and capacities included) and the
// cut count must not depend on how many workers built them.
func TestBuildBitmapIndexWidthInvariant(t *testing.T) {
	s := tombstonedIndexStore(t)
	for _, minSupp := range []int{1, 60} {
		want, wantCut := BuildBitmapIndex(s, minSupp, 1)
		for _, width := range []int{2, 4} {
			got, cut := BuildBitmapIndex(s, minSupp, width)
			if cut != wantCut {
				t.Fatalf("minSupp %d width %d: cut %d, width 1 cut %d", minSupp, width, cut, wantCut)
			}
			for _, side := range []byte("LWR") {
				a, _, _ := want.column(side)
				b, _, _ := got.column(side)
				if !sameBitmaps(a, b) {
					t.Fatalf("minSupp %d width %d: side %c differs from width 1", minSupp, width, side)
				}
			}
		}
	}
}

// sameBitmaps reports whether two bitmap tables hold the same bitmaps with
// the same lengths and capacities, nil where the other is nil.
func sameBitmaps(a, b [][]Bitmap) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for v := range a[i] {
			x, y := a[i][v], b[i][v]
			if (x == nil) != (y == nil) || cap(x) != cap(y) || !slices.Equal(x, y) {
				return false
			}
		}
	}
	return true
}

// tombstonedIndexStore is the index tests' fixture: 700 rows over 40 nodes
// of dynSchema, the last 100 tombstoned but not compacted away. B draws
// 0..3 of its domain of 4, so B's value 4 is never carried.
func tombstonedIndexStore(t *testing.T) *Store {
	t.Helper()
	schema := dynSchema(t)
	r := rand.New(rand.NewSource(3))
	const n = 40
	g := graph.MustNew(schema, n)
	for v := 0; v < n; v++ {
		if err := g.SetNodeValues(v, graph.Value(r.Intn(4)), graph.Value(r.Intn(4))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 700; i++ {
		if _, err := g.AddEdge(r.Intn(n), r.Intn(n), graph.Value(r.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	s := Build(g)
	doomed := s.AllEdges()[600:]
	for _, row := range doomed {
		if err := g.RemoveEdge(int(s.EdgeID(row))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RemoveEdges(doomed); err != nil {
		t.Fatal(err)
	}
	if s.NumRows() != 700 {
		t.Fatalf("removals compacted the store to %d rows", s.NumRows())
	}
	return s
}
