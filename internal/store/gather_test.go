package store

import (
	"math/rand"
	"slices"
	"testing"

	"grminer/internal/graph"
)

// TestValsIntoMatchAccessors pins the batch key gathers against the per-row
// accessors on every store shape the miner partitions: one carrying
// tombstones (whose values stay readable), one restored from a checkpoint,
// and one compacted and renumbered.
func TestValsIntoMatchAccessors(t *testing.T) {
	g, s := churnedStore(t)
	schema := g.Schema()
	check := func(name string, s *Store) {
		t.Helper()
		// Every row, tombstones included, in an order that is not ascending.
		rows := make([]int32, 0, s.NumRows())
		for e := s.NumRows() - 1; e >= 0; e -= 2 {
			rows = append(rows, int32(e))
		}
		for e := s.NumRows() - 2; e >= 0; e -= 2 {
			rows = append(rows, int32(e))
		}
		col := make([]uint16, 3, len(rows)+5) // reused: large enough, wrong length
		for a := range schema.Node {
			col = s.LValsInto(col, rows, a)
			if len(col) != len(rows) {
				t.Fatalf("%s: LValsInto returned %d keys for %d rows", name, len(col), len(rows))
			}
			for i, e := range rows {
				if col[i] != uint16(s.LVal(e, a)) {
					t.Fatalf("%s: LValsInto attr %d row %d = %d, LVal %d", name, a, e, col[i], s.LVal(e, a))
				}
			}
			col = s.RValsInto(col, rows, a)
			for i, e := range rows {
				if col[i] != uint16(s.RVal(e, a)) {
					t.Fatalf("%s: RValsInto attr %d row %d = %d, RVal %d", name, a, e, col[i], s.RVal(e, a))
				}
			}
		}
		for a := range schema.Edge {
			col = s.EValsInto(nil, rows, a)
			for i, e := range rows {
				if col[i] != uint16(s.EVal(e, a)) {
					t.Fatalf("%s: EValsInto attr %d row %d = %d, EVal %d", name, a, e, col[i], s.EVal(e, a))
				}
			}
		}
		if got := s.RValsInto(col, nil, 0); len(got) != 0 {
			t.Fatalf("%s: gathering no rows returned %d keys", name, len(got))
		}
	}

	if s.deadCount == 0 {
		t.Fatal("fixture has no tombstones")
	}
	check("tombstoned", s)

	r, err := FromState(g, s.State())
	if err != nil {
		t.Fatal(err)
	}
	check("restored", r)

	live := s.AllEdges()
	before := s.NumRows()
	if err := s.RemoveEdges(live[:len(live)-4]); err != nil {
		t.Fatal(err)
	}
	if s.NumRows() >= before {
		t.Fatalf("removal did not compact: %d rows before, %d after", before, s.NumRows())
	}
	check("compacted", s)
}

// TestOffsetGatherMatchesRValsInto is a property test of the destination
// offset gather: over random row subsets (any order, repeats allowed) of a
// store with tombstoned rows and a tail appended after the build, and of a
// full store grown by Append, gathering ROffsetsInto once and reading each
// column with RValsAtInto must give RValsInto's column, and RValAt must give
// RVal, for every node attribute.
func TestOffsetGatherMatchesRValsInto(t *testing.T) {
	_, churned := churnedStore(t)
	rng := rand.New(rand.NewSource(11))
	g := graph.MustNew(dynSchema(t), 12)
	for v := 0; v < 12; v++ {
		if err := g.SetNodeValues(v, graph.Value(v%4), graph.Value(1+v%3)); err != nil {
			t.Fatal(err)
		}
	}
	addEdges := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := g.AddEdge(rng.Intn(12), rng.Intn(12), graph.Value(1+i%2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	addEdges(30)
	grown := Build(g)
	addEdges(25)
	if rows := grown.Append(); len(rows) != 25 {
		t.Fatalf("Append ingested %d rows, want 25", len(rows))
	}
	for _, s := range []*Store{churned, grown} {
		nv := len(s.Graph().Schema().Node)
		var offs []int32
		var col, want []uint16
		for trial := 0; trial < 200; trial++ {
			rows := make([]int32, rng.Intn(s.NumRows()+1))
			for i := range rows {
				rows[i] = int32(rng.Intn(s.NumRows()))
			}
			offs = s.ROffsetsInto(offs, rows)
			if len(offs) != len(rows) {
				t.Fatalf("ROffsetsInto returned %d offsets for %d rows", len(offs), len(rows))
			}
			for a := 0; a < nv; a++ {
				col = s.RValsAtInto(col, offs, a)
				want = s.RValsInto(want, rows, a)
				if !slices.Equal(col, want) {
					t.Fatalf("trial %d attr %d: RValsAtInto %v, RValsInto %v", trial, a, col, want)
				}
				for i, e := range rows {
					if s.RValAt(offs[i], a) != s.RVal(e, a) {
						t.Fatalf("trial %d attr %d row %d: RValAt %d, RVal %d", trial, a, e, s.RValAt(offs[i], a), s.RVal(e, a))
					}
				}
			}
		}
	}
}
