package buc

import (
	"math/rand"
	"testing"

	"grminer/internal/graph"
)

// memTable is a simple in-memory Table for tests.
type memTable struct {
	rows    [][]graph.Value
	domains []int
}

func (m memTable) Rows() int                            { return len(m.rows) }
func (m memTable) Cols() int                            { return len(m.domains) }
func (m memTable) Domain(col int) int                   { return m.domains[col] }
func (m memTable) Value(row int32, col int) graph.Value { return m.rows[row][col] }

func TestComputeSmall(t *testing.T) {
	tbl := memTable{
		domains: []int{2, 2},
		rows: [][]graph.Value{
			{1, 1},
			{1, 2},
			{1, 1},
			{2, 1},
		},
	}
	res, err := Compute(tbl, 1)
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]int{
		"":         4,
		"0:1;":     3,
		"0:2;":     1,
		"1:1;":     3,
		"1:2;":     1,
		"0:1;1:1;": 2,
		"0:1;1:2;": 1,
		"0:2;1:1;": 1,
	}
	for key, want := range checks {
		if got := res.Cells[key]; got != want {
			t.Errorf("cell %q = %d, want %d", key, got, want)
		}
	}
	// 0:2;1:2; has no rows and must be absent.
	if _, ok := res.Cells["0:2;1:2;"]; ok {
		t.Error("empty cell materialised")
	}
	if len(res.List) != 7 {
		t.Errorf("list has %d cells, want 7", len(res.List))
	}
}

func TestComputeMinSupp(t *testing.T) {
	tbl := memTable{
		domains: []int{2, 2},
		rows: [][]graph.Value{
			{1, 1}, {1, 2}, {1, 1}, {2, 1},
		},
	}
	res, err := Compute(tbl, 2)
	if err != nil {
		t.Fatal(err)
	}
	for key, n := range res.Cells {
		if key != "" && n < 2 {
			t.Errorf("infrequent cell %q (count %d) survived", key, n)
		}
	}
	if _, ok := res.Cells["0:2;"]; ok {
		t.Error("cell below minSupp kept")
	}
	if _, ok := res.Cells["0:1;1:1;"]; !ok {
		t.Error("frequent cell lost")
	}
}

func TestNullsNeverCondition(t *testing.T) {
	tbl := memTable{
		domains: []int{2},
		rows:    [][]graph.Value{{0}, {0}, {1}},
	}
	res, err := Compute(tbl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Cells["0:0;"]; ok {
		t.Error("null value formed a cell")
	}
	if res.Cells["0:1;"] != 1 {
		t.Errorf("cell 0:1 = %d, want 1", res.Cells["0:1;"])
	}
}

func TestComputeValidation(t *testing.T) {
	tbl := memTable{domains: []int{2}}
	if _, err := Compute(tbl, 0); err == nil {
		t.Error("minSupp 0 accepted")
	}
	res, err := Compute(tbl, 1) // zero rows
	if err != nil {
		t.Fatal(err)
	}
	if len(res.List) != 0 || res.Cells[""] != 0 {
		t.Errorf("empty table produced cells: %v", res.Cells)
	}
}

func TestCountMatching(t *testing.T) {
	tbl := memTable{
		domains: []int{2, 3},
		rows: [][]graph.Value{
			{1, 3}, {1, 1}, {2, 3}, {1, 3},
		},
	}
	if got := CountMatching(tbl, []Cond{{0, 1}, {1, 3}}); got != 2 {
		t.Errorf("CountMatching = %d, want 2", got)
	}
	if got := CountMatching(tbl, nil); got != 4 {
		t.Errorf("CountMatching(nil) = %d, want 4", got)
	}
}

func TestSortCells(t *testing.T) {
	cells := []Cell{
		{Conds: []Cond{{0, 1}, {1, 1}}},
		{Conds: []Cond{{1, 2}}},
		{Conds: []Cond{{0, 2}}},
	}
	SortCells(cells)
	if len(cells[0].Conds) != 1 || len(cells[2].Conds) != 2 {
		t.Errorf("cells not sorted general-first: %v", cells)
	}
	if Key(cells[0].Conds) > Key(cells[1].Conds) {
		t.Error("equal-length cells not in key order")
	}
	// Keys order as strings, not numbers: column 10 sorts before column 2.
	wide := []Cell{{Conds: []Cond{{2, 1}}}, {Conds: []Cond{{10, 65535}}}}
	SortCells(wide)
	if got := Key(wide[0].Conds) + Key(wide[1].Conds); got != "10:65535;2:1;" {
		t.Errorf("keys %q, want \"10:65535;2:1;\"", got)
	}
}

// Every cell's count must equal a direct scan, on random tables.
func TestComputeMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		cols := 2 + r.Intn(3)
		domains := make([]int, cols)
		for i := range domains {
			domains[i] = 1 + r.Intn(3)
		}
		rows := make([][]graph.Value, 20+r.Intn(40))
		for i := range rows {
			row := make([]graph.Value, cols)
			for c := range row {
				row[c] = graph.Value(r.Intn(domains[c] + 1))
			}
			rows[i] = row
		}
		tbl := memTable{rows: rows, domains: domains}
		minSupp := 1 + r.Intn(3)
		res, err := Compute(tbl, minSupp)
		if err != nil {
			t.Fatal(err)
		}
		for _, cell := range res.List {
			if want := CountMatching(tbl, cell.Conds); cell.Count != want {
				t.Fatalf("seed %d: cell %q count %d, scan %d", seed, Key(cell.Conds), cell.Count, want)
			}
			if cell.Count < minSupp {
				t.Fatalf("seed %d: infrequent cell %q", seed, Key(cell.Conds))
			}
		}
		// Completeness: no frequent 2-condition combination missing.
		for c1 := 0; c1 < cols; c1++ {
			for v1 := 1; v1 <= domains[c1]; v1++ {
				for c2 := c1 + 1; c2 < cols; c2++ {
					for v2 := 1; v2 <= domains[c2]; v2++ {
						conds := []Cond{{c1, graph.Value(v1)}, {c2, graph.Value(v2)}}
						n := CountMatching(tbl, conds)
						if n >= minSupp {
							if _, ok := res.Count(conds); !ok {
								t.Fatalf("seed %d: frequent cell %q missing", seed, Key(conds))
							}
						}
					}
				}
			}
		}
	}
}
