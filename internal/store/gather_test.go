package store

import "testing"

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
