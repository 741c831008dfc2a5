package store

import (
	"math/rand"
	"testing"

	"grminer/internal/dataset"
	"grminer/internal/graph"
)

func TestBuildToy(t *testing.T) {
	g := dataset.ToyDating()
	s := Build(g)
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if s.NumEdges() != 30 {
		t.Errorf("NumEdges = %d", s.NumEdges())
	}
	// Every toy node dates someone, so all 14 appear in both arrays.
	if s.NumLRows() != 14 || s.NumRRows() != 14 {
		t.Errorf("rows = %d, %d; want 14, 14", s.NumLRows(), s.NumRRows())
	}
}

func TestZeroDegreeNodesDropped(t *testing.T) {
	sch, err := graph.NewSchema([]graph.Attribute{{Name: "A", Domain: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.MustNew(sch, 5)
	for n := 0; n < 5; n++ {
		g.SetNodeValues(n, graph.Value(n%2+1))
	}
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	// Nodes 3, 4 are isolated; node 0 is source-only; 1, 2 sink-only.
	s := Build(g)
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if s.NumLRows() != 1 {
		t.Errorf("LArray rows = %d, want 1", s.NumLRows())
	}
	if s.NumRRows() != 2 {
		t.Errorf("RArray rows = %d, want 2", s.NumRRows())
	}
}

func TestCSRGrouping(t *testing.T) {
	sch, _ := graph.NewSchema([]graph.Attribute{{Name: "A", Domain: 4}}, nil)
	g := graph.MustNew(sch, 4)
	for n := 0; n < 4; n++ {
		g.SetNodeValues(n, graph.Value(n+1))
	}
	// Interleave sources deliberately.
	g.AddEdge(2, 0)
	g.AddEdge(0, 1)
	g.AddEdge(2, 1)
	g.AddEdge(1, 0)
	g.AddEdge(2, 3)
	s := Build(g)
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Edges must be contiguous per source in EArray.
	lastSrc := int32(-1)
	seen := map[int32]bool{}
	for e := int32(0); int(e) < s.NumRows(); e++ {
		if !s.Alive(e) {
			continue
		}
		src := s.SrcNode(e)
		if src != lastSrc {
			if seen[src] {
				t.Fatalf("source %d appears in two runs", src)
			}
			seen[src] = true
			lastSrc = src
		}
	}
}

func TestSizeAccounting(t *testing.T) {
	g := dataset.ToyDating()
	s := Build(g)
	// |V|=14 (all in both arrays), |E|=30, #AttrV=3, #AttrE=1.
	wantCompact := 14*(3+2) + 30*(1+1) + 14*3
	if got := s.CompactSizeCells(); got != wantCompact {
		t.Errorf("CompactSizeCells = %d, want %d", got, wantCompact)
	}
	wantFlat := 30 * (2*3 + 1)
	if got := SingleTableSizeCells(g); got != wantFlat {
		t.Errorf("SingleTableSizeCells = %d, want %d", got, wantFlat)
	}
	if wantCompact >= wantFlat {
		t.Errorf("compact (%d) should beat single table (%d) even on the toy", wantCompact, wantFlat)
	}
}

func TestFlatten(t *testing.T) {
	g := dataset.ToyDating()
	ft := Flatten(g)
	if ft.Rows != 30 || ft.Width != 7 {
		t.Fatalf("flat table %dx%d", ft.Rows, ft.Width)
	}
	for e := 0; e < g.NumEdges(); e++ {
		if !g.EdgeAlive(e) {
			continue
		}
		for a := 0; a < 3; a++ {
			if ft.Value(int32(e), ft.LCol(a)) != g.NodeValue(g.Src(e), a) {
				t.Fatalf("edge %d L attr %d mismatch", e, a)
			}
			if ft.Value(int32(e), ft.RCol(a)) != g.NodeValue(g.Dst(e), a) {
				t.Fatalf("edge %d R attr %d mismatch", e, a)
			}
		}
		if ft.Value(int32(e), ft.WCol(0)) != g.EdgeValue(e, 0) {
			t.Fatalf("edge %d W mismatch", e)
		}
	}
}

func TestAllEdges(t *testing.T) {
	s := Build(dataset.ToyDating())
	ids := s.AllEdges()
	if len(ids) != 30 {
		t.Fatalf("AllEdges len = %d", len(ids))
	}
	for i, id := range ids {
		if id != int32(i) {
			t.Fatalf("AllEdges[%d] = %d", i, id)
		}
	}
	ids[0] = 99
	if s.AllEdges()[0] != 0 {
		t.Error("AllEdges must return a fresh slice")
	}
}

func TestBuildRandomGraphs(t *testing.T) {
	sch, _ := graph.NewSchema(
		[]graph.Attribute{{Name: "A", Domain: 3, Homophily: true}, {Name: "B", Domain: 5}},
		[]graph.Attribute{{Name: "W", Domain: 2}},
	)
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		g := graph.MustNew(sch, n)
		for v := 0; v < n; v++ {
			g.SetNodeValues(v, graph.Value(r.Intn(4)), graph.Value(r.Intn(6)))
		}
		m := r.Intn(100)
		for e := 0; e < m; e++ {
			g.AddEdge(r.Intn(n), r.Intn(n), graph.Value(r.Intn(3)))
		}
		s := Build(g)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	sch, _ := graph.NewSchema([]graph.Attribute{{Name: "A", Domain: 2}}, nil)
	g := graph.MustNew(sch, 0)
	s := Build(g)
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate empty: %v", err)
	}
	if s.NumEdges() != 0 || s.NumLRows() != 0 || len(s.AllEdges()) != 0 {
		t.Error("empty graph produced non-empty store")
	}
}

// Append must leave the store exactly equivalent (per-edge, via the eID
// mapping) to a fresh Build of the grown graph, across random interleavings
// of builds and appends that activate previously row-less nodes.
func TestAppendMatchesRebuild(t *testing.T) {
	sch, _ := graph.NewSchema(
		[]graph.Attribute{{Name: "A", Domain: 3, Homophily: true}, {Name: "B", Domain: 5}},
		[]graph.Attribute{{Name: "W", Domain: 2}},
	)
	for seed := int64(0); seed < 15; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(25)
		g := graph.MustNew(sch, n)
		for v := 0; v < n; v++ {
			g.SetNodeValues(v, graph.Value(r.Intn(4)), graph.Value(r.Intn(6)))
		}
		for e, m := 0, r.Intn(40); e < m; e++ {
			g.AddEdge(r.Intn(n), r.Intn(n), graph.Value(r.Intn(3)))
		}
		s := Build(g)
		// Grow in a few rounds, syncing after each.
		for round := 0; round < 3; round++ {
			added := 1 + r.Intn(20)
			before := s.NumEdges()
			for e := 0; e < added; e++ {
				g.AddEdge(r.Intn(n), r.Intn(n), graph.Value(r.Intn(3)))
			}
			ids := s.Append()
			if len(ids) != added {
				t.Fatalf("seed %d round %d: Append returned %d ids, want %d", seed, round, len(ids), added)
			}
			for i, id := range ids {
				if int(id) != before+i {
					t.Fatalf("seed %d: appended row ids not a tail segment: %v", seed, ids)
				}
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			// Equivalence with a fresh Build, accessor by accessor, keyed by
			// the original edge id (row layouts legitimately differ).
			fresh := Build(g)
			byID := make(map[int32]int32, fresh.NumEdges())
			for e := int32(0); int(e) < fresh.NumRows(); e++ {
				if !fresh.Alive(e) {
					continue
				}
				byID[fresh.EdgeID(e)] = e
			}
			for e := int32(0); int(e) < s.NumRows(); e++ {
				if !s.Alive(e) {
					continue
				}
				f, ok := byID[s.EdgeID(e)]
				if !ok {
					t.Fatalf("seed %d: edge id %d missing from fresh build", seed, s.EdgeID(e))
				}
				if s.SrcNode(e) != fresh.SrcNode(f) || s.DstNode(e) != fresh.DstNode(f) {
					t.Fatalf("seed %d: endpoints diverge at edge id %d", seed, s.EdgeID(e))
				}
				for a := 0; a < 2; a++ {
					if s.LVal(e, a) != fresh.LVal(f, a) || s.RVal(e, a) != fresh.RVal(f, a) {
						t.Fatalf("seed %d: node values diverge at edge id %d attr %d", seed, s.EdgeID(e), a)
					}
				}
				if s.EVal(e, 0) != fresh.EVal(f, 0) {
					t.Fatalf("seed %d: edge value diverges at edge id %d", seed, s.EdgeID(e))
				}
			}
			if s.NumLRows() != fresh.NumLRows() || s.NumRRows() != fresh.NumRRows() {
				t.Fatalf("seed %d: row counts diverge: L %d/%d R %d/%d",
					seed, s.NumLRows(), fresh.NumLRows(), s.NumRRows(), fresh.NumRRows())
			}
		}
	}
}

// Append with no new graph edges is a no-op, and appending onto an
// initially empty store works.
func TestAppendEdgeCases(t *testing.T) {
	sch, _ := graph.NewSchema([]graph.Attribute{{Name: "A", Domain: 2}}, nil)
	g := graph.MustNew(sch, 4)
	for v := 0; v < 4; v++ {
		g.SetNodeValues(v, graph.Value(v%2+1))
	}
	s := Build(g)
	if ids := s.Append(); ids != nil {
		t.Errorf("no-op Append returned %v", ids)
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if ids := s.Append(); len(ids) != 2 {
		t.Fatalf("Append onto empty store returned %v", ids)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumLRows() != 2 || s.NumRRows() != 2 {
		t.Errorf("rows = %d, %d; want 2, 2", s.NumLRows(), s.NumRRows())
	}
}
