package store

import (
	"fmt"

	"grminer/internal/graph"
	"grminer/internal/intern"
)

// State is a Store's serializable snapshot: every array of the compact
// model, the tombstone set, the subset/high-water bookkeeping, whether
// postings were enabled, and the intern dictionary's id assignments.
// It is the store half of a worker checkpoint blob (DESIGN.md §9) — the
// graph itself is not included (the checkpoint layer reconstructs it from
// the spec plus the edge log) — and round-trips bit-identically:
// FromState(g, s.State()) yields a store whose arrays, row ids, tombstones,
// and interned ids all equal the original's.
//
// The slices alias the live store; State is a snapshot to serialize (gob
// copies), not a stable deep copy.
type State struct {
	Subset   bool
	Ingested int

	LNode []int32
	LVals []graph.Value
	LOut  []int32
	LInd  []int32

	ESrc  []int32
	EPtr  []int32
	EVals []graph.Value
	EID   []int32

	RNode []int32
	RVals []graph.Value

	LRowOf []int32
	RRowOf []int32

	Dead      []bool
	DeadCount int

	// Postings records that EnablePostings had run; the restoring side
	// rebuilds the bitmaps from the rows (they are a pure function of them)
	// instead of shipping them.
	Postings bool

	// HasDict guards Dict: a store whose Dict() was never called restores
	// without one, so first use still lazily creates it.
	HasDict bool
	Dict    intern.DictState
}

// State snapshots the store for serialization.
func (s *Store) State() State {
	st := State{
		Subset:    s.subset,
		Ingested:  s.ingested,
		LNode:     s.lNode,
		LVals:     s.lVals,
		LOut:      s.lOut,
		LInd:      s.lInd,
		ESrc:      s.eSrc,
		EPtr:      s.ePtr,
		EVals:     s.eVals,
		EID:       s.eID,
		RNode:     s.rNode,
		RVals:     s.rVals,
		LRowOf:    s.lRowOf,
		RRowOf:    s.rRowOf,
		Dead:      s.dead,
		DeadCount: s.deadCount,
		Postings:  s.post != nil,
		HasDict:   s.dict != nil,
	}
	if s.dict != nil {
		st.Dict = s.dict.State()
	}
	return st
}

// FromState reconstructs a store over g from a snapshot. g must be the same
// graph the snapshot was taken against (same schema, nodes, and edge ids).
// A snapshot arrives from outside the process (a checkpoint blob), so it
// fails closed: every array length and row reference is bounds-checked,
// every LArray and RArray row must name its node and carry that node's
// values (the rows later appends extend), the restored store must pass
// Validate before its postings bitmaps are built from its rows, and its
// dictionary must pass intern.FromState's checks.
func FromState(g *graph.Graph, st State) (*Store, error) {
	if err := checkState(g, &st); err != nil {
		return nil, err
	}
	s := &Store{
		g:         g,
		subset:    st.Subset,
		ingested:  st.Ingested,
		lNode:     st.LNode,
		lVals:     st.LVals,
		lOut:      st.LOut,
		lInd:      st.LInd,
		eSrc:      st.ESrc,
		ePtr:      st.EPtr,
		eVals:     st.EVals,
		eID:       st.EID,
		rNode:     st.RNode,
		rVals:     st.RVals,
		lRowOf:    st.LRowOf,
		rRowOf:    st.RRowOf,
		dead:      st.Dead,
		deadCount: st.DeadCount,
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("store: state: %w", err)
	}
	if st.HasDict {
		d, err := intern.FromState(intern.NewLayout(g.Schema()), st.Dict)
		if err != nil {
			return nil, err
		}
		s.dict = d
	}
	if st.Postings {
		s.EnablePostings()
	}
	return s, nil
}

// checkState is FromState's structural validation.
func checkState(g *graph.Graph, st *State) error {
	nv, ne := len(g.Schema().Node), len(g.Schema().Edge)
	n, edges := g.NumNodes(), g.NumEdges()
	rows := len(st.EID)
	if len(st.ESrc) != rows || len(st.EPtr) != rows || len(st.EVals) != rows*ne {
		return fmt.Errorf("store: state: EArray columns disagree (%d ids, %d srcs, %d ptrs, %d values)",
			rows, len(st.ESrc), len(st.EPtr), len(st.EVals))
	}
	lRows, rRows := len(st.LNode), len(st.RNode)
	if len(st.LVals) != lRows*nv || len(st.LOut) != lRows || len(st.LInd) != lRows || len(st.RVals) != rRows*nv {
		return fmt.Errorf("store: state: LArray/RArray columns disagree with %d/%d rows", lRows, rRows)
	}
	if st.Dead != nil && len(st.Dead) != rows {
		return fmt.Errorf("store: state: %d tombstone marks for %d rows", len(st.Dead), rows)
	}
	dead := 0
	for _, d := range st.Dead {
		if d {
			dead++
		}
	}
	if st.DeadCount != dead {
		return fmt.Errorf("store: state: dead count %d, %d rows marked", st.DeadCount, dead)
	}
	if st.Ingested < 0 || st.Ingested > edges {
		return fmt.Errorf("store: state: high-water mark %d outside %d graph edges", st.Ingested, edges)
	}
	for e := 0; e < rows; e++ {
		if src, ptr, id := st.ESrc[e], st.EPtr[e], st.EID[e]; src < 0 || int(src) >= lRows ||
			ptr < 0 || int(ptr) >= rRows || id < 0 || int(id) >= edges {
			return fmt.Errorf("store: state: edge row %d references LArray row %d, RArray row %d, edge %d out of range",
				e, src, ptr, id)
		}
	}
	if len(st.LRowOf) != n || len(st.RRowOf) != n {
		return fmt.Errorf("store: state: row maps cover %d/%d nodes, graph has %d",
			len(st.LRowOf), len(st.RRowOf), n)
	}
	if err := checkNodeRows("LArray", g, st.LNode, st.LVals, st.LRowOf); err != nil {
		return err
	}
	return checkNodeRows("RArray", g, st.RNode, st.RVals, st.RRowOf)
}

// checkNodeRows checks one node-row array against g: each row names a
// distinct node the row map sends back to it, and carries that node's
// values; every other node maps to -1.
func checkNodeRows(name string, g *graph.Graph, node []int32, vals []graph.Value, rowOf []int32) error {
	nv := len(g.Schema().Node)
	for row, v := range node {
		if v < 0 || int(v) >= len(rowOf) || rowOf[v] != int32(row) {
			return fmt.Errorf("store: state: %s row %d names node %d, which the row map does not send back", name, row, v)
		}
		want := g.NodeValues(int(v))
		for a, x := range vals[row*nv : (row+1)*nv] {
			if x != want[a] {
				return fmt.Errorf("store: state: %s row %d carries value %d for attribute %d, node %d has %d",
					name, row, x, a, v, want[a])
			}
		}
	}
	for v, row := range rowOf {
		if row < -1 || int(row) >= len(node) || (row >= 0 && node[row] != int32(v)) {
			return fmt.Errorf("store: state: %s row map sends node %d to row %d", name, v, row)
		}
	}
	return nil
}
