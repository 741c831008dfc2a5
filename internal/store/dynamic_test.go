package store

import (
	"math/rand"
	"testing"

	"grminer/internal/graph"
)

// dynSchema builds a small mixed schema for the dynamic store tests.
func dynSchema(t *testing.T) *graph.Schema {
	t.Helper()
	schema, err := graph.NewSchema(
		[]graph.Attribute{
			{Name: "A", Domain: 3, Homophily: true},
			{Name: "B", Domain: 4},
		},
		[]graph.Attribute{{Name: "W", Domain: 2}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

// TestAppendSkipsEdgesDeadBeforeIngest pins Append's high-water mark: an
// edge removed from the graph before the store ingested it is skipped, not
// ingested, and the mark still passes it, so no later Append revisits it;
// edges added after the mark flow in normally.
func TestAppendSkipsEdgesDeadBeforeIngest(t *testing.T) {
	g := graph.MustNew(dynSchema(t), 6)
	for v := 0; v < 6; v++ {
		if err := g.SetNodeValues(v, graph.Value(1+v%3), graph.Value(1+v%4)); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < 8; e++ {
		if _, err := g.AddEdge(e%6, (e+1)%6, graph.Value(1+e%2)); err != nil {
			t.Fatal(err)
		}
	}
	s := Build(g)
	for e := 0; e < 3; e++ { // edges 8, 9, 10
		if _, err := g.AddEdge(e, 5, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.RemoveEdge(9); err != nil {
		t.Fatal(err)
	}
	rows := s.Append()
	if len(rows) != 2 || s.EdgeID(rows[0]) != 8 || s.EdgeID(rows[1]) != 10 {
		t.Fatalf("Append ingested rows %v, want edges 8 and 10", rows)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if rows := s.Append(); rows != nil {
		t.Fatalf("second Append ingested %v", rows)
	}
	if _, err := g.AddEdge(3, 4, 2); err != nil { // edge 11
		t.Fatal(err)
	}
	if rows := s.Append(); len(rows) != 1 || s.EdgeID(rows[0]) != 11 {
		t.Fatalf("Append after the mark ingested %v", rows)
	}
	if s.NumEdges() != 11 {
		t.Fatalf("store holds %d edges, want 11", s.NumEdges())
	}
}

// scanRows recomputes one (side, attr) partition of the live rows by brute
// force — per value, the ascending live rows carrying it — which the
// postings bitmaps must match.
func scanRows(s *Store, side byte, attr, domain int) [][]int32 {
	rows := make([][]int32, domain+1)
	for e := int32(0); int(e) < s.NumRows(); e++ {
		if !s.Alive(e) {
			continue
		}
		var v graph.Value
		switch side {
		case 'L':
			v = s.LVal(e, attr)
		case 'R':
			v = s.RVal(e, attr)
		case 'W':
			v = s.EVal(e, attr)
		}
		rows[v] = append(rows[v], e)
	}
	return rows
}

// assertPostingsMatchScan checks every postings bitmap against the
// brute-force partition pass: each must be live-exact, so its Count, its
// enumerated rows (ascending) and per-row Has over the whole row space must
// all agree with the scan. The index must also read the store it is
// installed in — compaction swaps the store's arrays under it.
func assertPostingsMatchScan(t *testing.T, s *Store) {
	t.Helper()
	x := s.Postings()
	if x == nil {
		t.Fatal("postings not enabled")
	}
	if x.NumEdges() != s.NumEdges() {
		t.Fatalf("Postings().NumEdges() = %d, store holds %d live rows", x.NumEdges(), s.NumEdges())
	}
	var got []int32
	check := func(name string, a int, v graph.Value, bm Bitmap, want []int32) {
		t.Helper()
		if n := bm.Count(); n != len(want) {
			t.Fatalf("%s(%d,%d) Count = %d, scan has %d live rows", name, a, v, n, len(want))
		}
		got = bm.RowsInto(got)
		if len(got) != len(want) {
			t.Fatalf("%s(%d,%d) enumerates %d rows, scan has %d", name, a, v, len(got), len(want))
		}
		for i, row := range want {
			if got[i] != row {
				t.Fatalf("%s(%d,%d) row %d = %d, scan says %d", name, a, v, i, got[i], row)
			}
		}
		i := 0
		//grlint:ignore deadedge tombstoned rows are probed on purpose: Has must deny them
		for row := int32(0); int(row) < s.NumRows(); row++ {
			in := i < len(want) && want[i] == row
			if in {
				i++
			}
			if bm.Has(row) != in {
				t.Fatalf("%s(%d,%d) Has(%d) = %v, scan says %v", name, a, v, row, !in, in)
			}
		}
	}
	schema := s.Graph().Schema()
	for a := range schema.Node {
		wantL := scanRows(s, 'L', a, schema.Node[a].Domain)
		wantR := scanRows(s, 'R', a, schema.Node[a].Domain)
		for v := graph.Value(1); int(v) <= schema.Node[a].Domain; v++ {
			check("LBitmap", a, v, x.LBitmap(a, v), wantL[v])
			check("RBitmap", a, v, x.RBitmap(a, v), wantR[v])
		}
	}
	for a := range schema.Edge {
		wantW := scanRows(s, 'W', a, schema.Edge[a].Domain)
		for v := graph.Value(1); int(v) <= schema.Edge[a].Domain; v++ {
			check("WBitmap", a, v, x.WBitmap(a, v), wantW[v])
		}
	}
}

// TestPostingListsMatchScanUnderChurn drives a randomized insert/delete
// sequence — long enough to cross the compaction threshold several times —
// and asserts after every batch that the postings bitmaps equal a
// from-scratch partition pass, and that the store still validates.
func TestPostingListsMatchScanUnderChurn(t *testing.T) {
	schema := dynSchema(t)
	r := rand.New(rand.NewSource(7))
	n := 10
	g := graph.MustNew(schema, n)
	for v := 0; v < n; v++ {
		if err := g.SetNodeValues(v, graph.Value(r.Intn(4)), graph.Value(r.Intn(5))); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < 120; e++ {
		if _, err := g.AddEdge(r.Intn(n), r.Intn(n), graph.Value(r.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	s := Build(g)
	s.EnablePostings()
	assertPostingsMatchScan(t, s)

	live := make([]int32, 0, s.NumEdges())
	live = append(live, s.AllEdges()...)
	compactions := 0
	for step := 0; step < 40; step++ {
		// Delete a random handful of live rows...
		del := make([]int32, 0, 4)
		seen := map[int32]bool{}
		for i := 0; i < 1+r.Intn(6) && len(live) > 0; i++ {
			j := r.Intn(len(live))
			row := live[j]
			if seen[row] {
				continue
			}
			seen[row] = true
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			del = append(del, row)
		}
		before := s.NumRows()
		for _, row := range del {
			if err := g.RemoveEdge(int(s.EdgeID(row))); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		if err := s.RemoveEdges(del); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if s.NumRows() < before {
			compactions++
			// Rows renumbered: rebuild the live id list from scratch.
			live = append(live[:0], s.AllEdges()...)
		}
		// ...and insert a few fresh edges through the append path.
		for i := 0; i < r.Intn(5); i++ {
			if _, err := g.AddEdge(r.Intn(n), r.Intn(n), graph.Value(r.Intn(3))); err != nil {
				t.Fatal(err)
			}
		}
		live = append(live, s.Append()...)

		if err := s.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if s.NumEdges() != g.NumLiveEdges() {
			t.Fatalf("step %d: store holds %d live rows, graph %d live edges", step, s.NumEdges(), g.NumLiveEdges())
		}
		assertPostingsMatchScan(t, s)
	}
	if compactions == 0 {
		t.Error("churn never triggered a compaction — threshold untested")
	}
}

// TestAndCountMatchesAndInto pins the fused intersect-and-count against the
// materialising AndInto, including operands of unequal length (a bitmap only
// grows to its highest row) and the nil bitmap of a value no row carries.
func TestAndCountMatchesAndInto(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	random := func() Bitmap {
		var b Bitmap
		for i := r.Intn(8); i > 0; i-- {
			b = b.Set(int32(r.Intn(300)))
		}
		return b
	}
	var scratch Bitmap
	for i := 0; i < 200; i++ {
		a, b := random(), random()
		scratch = AndInto(scratch, a, b)
		if got, want := AndCount(a, b), scratch.Count(); got != want {
			t.Fatalf("AndCount(%v, %v) = %d, want %d", a, b, got, want)
		}
		if got := AndCount(b, a); got != scratch.Count() {
			t.Fatalf("AndCount not symmetric on %v, %v", a, b)
		}
		if AndCount(a, nil) != 0 || AndCount(nil, b) != 0 {
			t.Fatal("intersection with a nil bitmap must be empty")
		}
	}
}

// TestRemoveEdgesErrors pins the tombstone API's failure modes: out-of-range
// rows and double deletion are loud errors, not silent corruption.
func TestRemoveEdgesErrors(t *testing.T) {
	schema := dynSchema(t)
	g := graph.MustNew(schema, 4)
	for v := 0; v < 4; v++ {
		if err := g.SetNodeValues(v, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < 5; e++ {
		if _, err := g.AddEdge(e%4, (e+1)%4, 1); err != nil {
			t.Fatal(err)
		}
	}
	s := Build(g)
	if err := s.RemoveEdges([]int32{99}); err == nil {
		t.Error("out-of-range row removed")
	}
	if err := s.RemoveEdges([]int32{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveEdges([]int32{1}); err == nil {
		t.Error("double removal accepted")
	}
	if s.NumEdges() != 4 || s.NumRows() != 5 || s.Alive(1) {
		t.Errorf("tombstone bookkeeping off: live=%d rows=%d alive(1)=%v", s.NumEdges(), s.NumRows(), s.Alive(1))
	}
}

// TestBuildOverTombstonedGraph: Build on a graph with removed edges must
// cover exactly the live set (the reference mines of the dynamic oracles
// rely on this).
func TestBuildOverTombstonedGraph(t *testing.T) {
	schema := dynSchema(t)
	g := graph.MustNew(schema, 5)
	for v := 0; v < 5; v++ {
		if err := g.SetNodeValues(v, graph.Value(1+v%3), 1); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < 10; e++ {
		if _, err := g.AddEdge(e%5, (e+2)%5, graph.Value(1+e%2)); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []int{0, 3, 9} {
		if err := g.RemoveEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	s := Build(g)
	if s.NumEdges() != 7 {
		t.Fatalf("store covers %d edges, want 7", s.NumEdges())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for e := int32(0); int(e) < s.NumRows(); e++ {
		if !g.EdgeAlive(int(s.EdgeID(e))) {
			t.Fatalf("row %d maps to dead graph edge %d", e, s.EdgeID(e))
		}
	}
}

// TestPostingsSlackBounded pins the maintained postings' memory: every
// bitmap grows a word at a time as rows arrive, so Bitmap.Set must
// reallocate to a bounded over-allocation (an eighth) instead of append's
// doubling, which left up to half of each bitmap as slack for the store's
// lifetime. Checked after EnablePostings and after several appends.
func TestPostingsSlackBounded(t *testing.T) {
	schema := dynSchema(t)
	r := rand.New(rand.NewSource(5))
	const n = 200
	g := graph.MustNew(schema, n)
	for v := 0; v < n; v++ {
		if err := g.SetNodeValues(v, graph.Value(1+r.Intn(3)), graph.Value(1+r.Intn(4))); err != nil {
			t.Fatal(err)
		}
	}
	addEdges := func(k int) {
		for i := 0; i < k; i++ {
			if _, err := g.AddEdge(r.Intn(n), r.Intn(n), graph.Value(1+r.Intn(2))); err != nil {
				t.Fatal(err)
			}
		}
	}
	var s *Store
	check := func(phase string) {
		t.Helper()
		x := s.Postings()
		for _, side := range [][][]Bitmap{x.l, x.w, x.r} {
			for a := range side {
				for v, b := range side[a] {
					if cap(b) > len(b)+len(b)/8 {
						t.Errorf("%s: bitmap [%d][%d] holds %d words in a capacity of %d", phase, a, v, len(b), cap(b))
					}
				}
			}
		}
	}
	addEdges(5000)
	s = Build(g)
	s.EnablePostings()
	assertPostingsMatchScan(t, s)
	check("EnablePostings")
	for i := 0; i < 6; i++ {
		addEdges(700)
		s.Append()
		check("Append")
	}
	assertPostingsMatchScan(t, s)
}
