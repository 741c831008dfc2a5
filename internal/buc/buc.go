// Package buc implements Bottom-Up Computation of iceberg cubes (Beyer &
// Ramakrishnan, SIGMOD 1999, the paper's reference [23]): it enumerates
// every combination of column values whose row count meets a minimum
// support, by recursive counting-sort partitioning. The paper's baselines
// BL1 and BL2 run BUC over, respectively, the single-table and the
// three-array representation of the network, pruning only on support, and
// reconstruct GRs in a post-processing step.
package buc

import (
	"fmt"
	"sort"
	"strconv"

	"grminer/internal/csort"
	"grminer/internal/graph"
)

// Table abstracts the relation BUC mines: BL1 supplies the materialised
// single table, BL2 an adapter over the compact three-array store.
type Table interface {
	// Rows returns the number of rows (edges).
	Rows() int
	// Cols returns the number of columns (2×#AttrV + #AttrE).
	Cols() int
	// Domain returns the domain size of a column.
	Domain(col int) int
	// Value returns the value at (row, col); 0 is null.
	Value(row int32, col int) graph.Value
}

// Cond is one (column : value) condition of a cell.
type Cond struct {
	Col int
	Val graph.Value
}

// Cell is one iceberg cell: a set of conditions (sorted by column) and the
// number of rows satisfying all of them.
type Cell struct {
	Conds []Cond
	Count int
}

// Key canonically encodes a condition list (must be sorted by column) as
// "col:val;" per condition.
func Key(conds []Cond) string {
	b := make([]byte, 0, 8*len(conds))
	for _, c := range conds {
		b = strconv.AppendInt(b, int64(c.Col), 10)
		b = append(b, ':')
		b = strconv.AppendUint(b, uint64(c.Val), 10)
		b = append(b, ';')
	}
	return string(b)
}

// Result holds the computed iceberg cube.
type Result struct {
	// Cells maps cell keys to counts; includes the empty cell (all rows).
	Cells map[string]int
	// List holds every non-empty-condition cell for iteration.
	List []Cell
	// Partitions counts counting-sort invocations (work measure).
	Partitions int64
}

// Count looks up a cell by its conditions; absent cells (below the support
// threshold) return 0 and false.
func (r *Result) Count(conds []Cond) (int, bool) {
	n, ok := r.Cells[Key(conds)]
	return n, ok
}

// Compute runs BUC over t with the given absolute minimum support. Null
// values never form conditions but rows holding them still count toward
// less specific cells, mirroring the miner's treatment.
func Compute(t Table, minSupp int) (*Result, error) {
	if minSupp < 1 {
		return nil, fmt.Errorf("buc: minSupp %d < 1", minSupp)
	}
	res := &Result{Cells: make(map[string]int)}
	rows := t.Rows()
	res.Cells[""] = rows

	maxDomain := 1
	for c := 0; c < t.Cols(); c++ {
		if d := t.Domain(c); d > maxDomain {
			maxDomain = d
		}
	}
	part := csort.New(maxDomain)

	ids := make([]int32, rows)
	for i := range ids {
		ids[i] = int32(i)
	}
	buffers := make([][]int32, t.Cols()+1)
	groupBufs := make([][]csort.Group, t.Cols()+1)
	// keys is the key column of the partition being sorted; one serves every
	// depth because it is dead once Partition returns.
	keys := make([]uint16, 0, rows)

	var rec func(data []int32, depth, fromCol int, conds []Cond)
	rec = func(data []int32, depth, fromCol int, conds []Cond) {
		if cap(buffers[depth]) < len(data) {
			buffers[depth] = make([]int32, len(data))
		}
		buf := buffers[depth][:len(data)]
		for col := fromCol; col < t.Cols(); col++ {
			res.Partitions++
			keys = keys[:0]
			for _, row := range data {
				keys = append(keys, uint16(t.Value(row, col)))
			}
			groups := part.Partition(data, keys, minSupp, uint16(graph.Null), buf)
			groupBufs[depth] = append(groupBufs[depth][:0], groups...)
			for _, grp := range groupBufs[depth] {
				if grp.Val == uint16(graph.Null) || int(grp.N) < minSupp {
					continue
				}
				sub := buf[grp.Lo:grp.Hi]
				cell := Cell{
					Conds: append(append([]Cond(nil), conds...), Cond{Col: col, Val: graph.Value(grp.Val)}),
					Count: len(sub),
				}
				res.Cells[Key(cell.Conds)] = cell.Count
				res.List = append(res.List, cell)
				rec(sub, depth+1, col+1, cell.Conds)
			}
		}
	}
	if rows > 0 {
		rec(ids, 0, 0, nil)
	}
	return res, nil
}

// CountMatching scans t and counts rows satisfying all conditions; used for
// cells the iceberg dropped (below minSupp) but that a metric denominator
// still needs.
func CountMatching(t Table, conds []Cond) int {
	count := 0
	rows := int32(t.Rows())
	for row := int32(0); row < rows; row++ {
		ok := true
		for _, c := range conds {
			if t.Value(row, c.Col) != c.Val {
				ok = false
				break
			}
		}
		if ok {
			count++
		}
	}
	return count
}

// SortCells orders cells by condition count ascending, then key; the
// baselines process candidates most-general-first so the redundancy filter
// can use the same blocker structure as the miner.
func SortCells(cells []Cell) {
	o := cellOrder{cells: cells, keys: make([]string, len(cells))}
	for i, c := range cells {
		o.keys[i] = Key(c.Conds)
	}
	sort.Sort(o)
}

// cellOrder sorts cells beside their precomputed keys, so each key is
// encoded once rather than on every comparison.
type cellOrder struct {
	cells []Cell
	keys  []string
}

func (o cellOrder) Len() int { return len(o.cells) }

func (o cellOrder) Less(i, j int) bool {
	if a, b := len(o.cells[i].Conds), len(o.cells[j].Conds); a != b {
		return a < b
	}
	return o.keys[i] < o.keys[j]
}

func (o cellOrder) Swap(i, j int) {
	o.cells[i], o.cells[j] = o.cells[j], o.cells[i]
	o.keys[i], o.keys[j] = o.keys[j], o.keys[i]
}
