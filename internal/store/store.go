// Package store implements the compact data model of Section IV-A: node and
// edge attribute information is stored separately in LArray (edge sources),
// EArray (edges, grouped by source, with pointers into RArray), and RArray
// (edge destinations), avoiding the |E| × 2 × #AttrV blow-up of the single
// table a frequent-set miner would build. The package also provides that
// single-table layout (used by baseline BL1) and the cell-count accounting
// the paper uses to compare the two.
package store

import (
	"fmt"
	"math"

	"grminer/internal/graph"
	"grminer/internal/intern"
)

// Store is the three-array compact model over a graph. All per-edge
// accessors take an edge id in 0..NumEdges-1; edges are laid out in EArray
// grouped by source (the CSR layout of Figure 2), and EdgeID maps back to
// the original graph edge.
//
// The store is append-friendly: after more edges are added to the graph,
// Append brings the arrays back in sync. Appended edges form a tail segment
// of EArray (the CSR grouping of lInd covers only the Build-time segment —
// nothing in the miner depends on that grouping, only on per-edge accessors),
// and LArray/RArray grow rows for nodes whose out/in degree becomes non-zero.
type Store struct {
	g *graph.Graph

	// ingested is the high-water mark of graph edge ids synced into the
	// store (the resume point for Append).
	ingested int

	// LArray: one row per node with out-degree > 0.
	lNode []int32       // LArray row -> graph node id
	lVals []graph.Value // row-major node attribute values, len = rows * #AttrV
	lOut  []int32       // out-degree of the row's node
	lInd  []int32       // first EArray position of the row's Build-segment edges

	// EArray: one row per edge, grouped by source within the Build segment;
	// edges ingested later by Append sit in a tail segment in insertion order.
	eSrc  []int32       // EArray row -> LArray row of the source
	ePtr  []int32       // EArray row -> RArray row of the destination
	eVals []graph.Value // row-major edge attribute values
	eID   []int32       // EArray row -> original graph edge id

	// RArray: one row per node with in-degree > 0.
	rNode []int32
	rVals []graph.Value

	// lRowOf and rRowOf map a graph node id to its LArray/RArray row
	// (-1 when absent), so Append can route new edges without a rebuild.
	lRowOf []int32
	rRowOf []int32

	// dead marks tombstoned EArray rows (RemoveEdges); deadCount tracks how
	// many. Tombstones keep the remaining row ids stable and the removed
	// row's values readable until the next compaction folds them away.
	dead      []bool
	deadCount int

	// post, when non-nil (EnablePostings), is the maintained live-row
	// BitmapIndex the incremental engines partition from and shard workers
	// count on.
	post *BitmapIndex

	// dict, once created by Dict(), is the store's intern dictionary: the
	// dense descriptor/GR id space the engine's slice-indexed tables are
	// built over. It survives compaction untouched — interned ids are
	// derived from the schema and condition paths, never from row ids, so
	// renumbering rows cannot invalidate them (the intern property tests
	// pin this).
	dict *intern.Dict
}

// Compaction policy: fold tombstones away once they are both numerous enough
// to matter and a large enough fraction of the row space that a rebuild
// amortises. Until then RemoveEdges is O(batch × dims).
const (
	compactMinDead  = 32
	compactFraction = 4 // compact when deadCount ≥ len(rows)/compactFraction
)

// Build constructs the compact model for g, covering its live edges.
func Build(g *graph.Graph) *Store {
	var edges []int32
	if g.HasDeadEdges() {
		// Tombstoned graphs build over the explicit live id list; the common
		// append-only case keeps the allocation-free full-build fast path.
		edges = make([]int32, 0, g.NumLiveEdges())
		for e := 0; e < g.NumEdges(); e++ {
			if g.EdgeAlive(e) {
				edges = append(edges, int32(e))
			}
		}
	}
	s := buildFrom(g, edges)
	s.ingested = g.NumEdges()
	return s
}

// buildFrom builds the arrays over an edge id list; nil means every edge
// of g (the full-build fast path, which avoids materialising an id slice).
func buildFrom(g *graph.Graph, edges []int32) *Store {
	s := &Store{g: g}
	nv := len(g.Schema().Node)
	ne := len(g.Schema().Edge)
	n := g.NumNodes()
	m := len(edges)
	if edges == nil {
		m = g.NumEdges()
	}
	edgeAt := func(i int) int {
		if edges == nil {
			return i
		}
		return int(edges[i])
	}

	outDeg := make([]int32, n)
	inDeg := make([]int32, n)
	for i := 0; i < m; i++ {
		e := edgeAt(i)
		outDeg[g.Src(e)]++
		inDeg[g.Dst(e)]++
	}

	// Assign LArray and RArray rows; nodes with zero out-degree (in-degree)
	// do not appear in LArray (RArray) — Section IV-A notes this saving. The
	// node -> row maps are retained so Append can extend the arrays later.
	lRow := make([]int32, n)
	rRow := make([]int32, n)
	for i := range lRow {
		lRow[i], rRow[i] = -1, -1
	}
	for v := 0; v < n; v++ {
		if outDeg[v] > 0 {
			lRow[v] = int32(len(s.lNode))
			s.lNode = append(s.lNode, int32(v))
		}
		if inDeg[v] > 0 {
			rRow[v] = int32(len(s.rNode))
			s.rNode = append(s.rNode, int32(v))
		}
	}
	s.lRowOf, s.rRowOf = lRow, rRow
	s.lVals = make([]graph.Value, len(s.lNode)*nv)
	for row, v := range s.lNode {
		copy(s.lVals[row*nv:(row+1)*nv], g.NodeValues(int(v)))
	}
	s.rVals = make([]graph.Value, len(s.rNode)*nv)
	for row, v := range s.rNode {
		copy(s.rVals[row*nv:(row+1)*nv], g.NodeValues(int(v)))
	}

	// CSR over sources: Ind/Out per LArray row, edges scattered into EArray.
	s.lOut = make([]int32, len(s.lNode))
	s.lInd = make([]int32, len(s.lNode))
	for row, v := range s.lNode {
		s.lOut[row] = outDeg[v]
	}
	var off int32
	for row := range s.lInd {
		s.lInd[row] = off
		off += s.lOut[row]
	}
	s.eSrc = make([]int32, m)
	s.ePtr = make([]int32, m)
	s.eID = make([]int32, m)
	if ne > 0 {
		s.eVals = make([]graph.Value, m*ne)
	}
	cursor := make([]int32, len(s.lNode))
	copy(cursor, s.lInd)
	for i := 0; i < m; i++ {
		e := edgeAt(i)
		src := g.Src(e)
		row := lRow[src]
		pos := cursor[row]
		cursor[row]++
		s.eSrc[pos] = row
		s.ePtr[pos] = rRow[g.Dst(e)]
		s.eID[pos] = int32(e)
		if ne > 0 {
			copy(s.eVals[int(pos)*ne:(int(pos)+1)*ne], g.EdgeValues(e))
		}
	}
	return s
}

// Append brings the store in sync with its graph after edges were appended
// to the graph (node attribute values must not have changed). New live
// edges are appended to EArray as a tail segment in graph-edge order; nodes
// appearing as a source (destination) for the first time gain an LArray
// (RArray) row. It returns the EArray row ids of the newly ingested edges.
// Append is not safe to call concurrently with readers.
func (s *Store) Append() []int32 {
	total := s.g.NumEdges()
	if s.ingested >= total {
		return nil
	}
	ne := len(s.g.Schema().Edge)
	rows := make([]int32, 0, total-s.ingested)
	for e := s.ingested; e < total; e++ {
		// Edges dead before the store saw them are skipped, not ingested;
		// the high-water mark still passes them, so they are not rescanned.
		if !s.g.EdgeAlive(e) {
			continue
		}
		src, dst := s.g.Src(e), s.g.Dst(e)
		lRow := s.lRowOf[src]
		if lRow < 0 {
			lRow = int32(len(s.lNode))
			s.lRowOf[src] = lRow
			s.lNode = append(s.lNode, int32(src))
			s.lVals = append(s.lVals, s.g.NodeValues(src)...)
			s.lOut = append(s.lOut, 0)
			// The new row's edges live in the tail segment, outside the
			// Build-time CSR; its lInd is the segment start as a best effort.
			s.lInd = append(s.lInd, int32(len(s.ePtr)))
		}
		s.lOut[lRow]++
		rRow := s.rRowOf[dst]
		if rRow < 0 {
			rRow = int32(len(s.rNode))
			s.rRowOf[dst] = rRow
			s.rNode = append(s.rNode, int32(dst))
			s.rVals = append(s.rVals, s.g.NodeValues(dst)...)
		}
		row := int32(len(s.ePtr))
		s.eSrc = append(s.eSrc, lRow)
		s.ePtr = append(s.ePtr, rRow)
		s.eID = append(s.eID, int32(e))
		if ne > 0 {
			s.eVals = append(s.eVals, s.g.EdgeValues(e)...)
		}
		if s.dead != nil {
			s.dead = append(s.dead, false)
		}
		if s.post != nil {
			s.post.mark(row, true)
		}
		rows = append(rows, row)
	}
	s.ingested = total
	return rows
}

// RemoveEdges tombstones the given EArray rows (which must be distinct and
// alive). The removed rows' values stay readable — callers delta-recounting
// against a deletion read them first — until the dead fraction crosses the
// compaction threshold, at which point the arrays are rebuilt over the
// surviving rows and ALL ROW IDS ARE RENUMBERED: treat previously returned
// row ids as invalid after any RemoveEdges call. The postings bitmaps are
// kept live-exact either way. Not safe to call concurrently with readers.
func (s *Store) RemoveEdges(rows []int32) error {
	for _, row := range rows {
		if row < 0 || int(row) >= len(s.ePtr) {
			return fmt.Errorf("store: remove: row %d out of range [0, %d)", row, len(s.ePtr))
		}
		if s.dead != nil && s.dead[row] {
			return fmt.Errorf("store: remove: row %d already dead", row)
		}
		if s.dead == nil {
			s.dead = make([]bool, len(s.ePtr))
		}
		s.dead[row] = true
		s.deadCount++
		if lRow := s.eSrc[row]; s.lOut[lRow] > 0 {
			s.lOut[lRow]--
		}
		if s.post != nil {
			s.post.mark(row, false)
		}
	}
	if s.deadCount >= compactMinDead && s.deadCount*compactFraction >= len(s.ePtr) {
		s.compact()
	}
	return nil
}

// compact rebuilds the arrays over the surviving rows, dropping tombstones
// and renumbering rows; the high-water mark, the dictionary and postings
// are preserved (the bitmaps are rebuilt against the new row ids).
func (s *Store) compact() {
	live := make([]int32, 0, s.NumEdges())
	for row := range s.ePtr {
		if !s.dead[row] {
			live = append(live, s.eID[row])
		}
	}
	n := buildFrom(s.g, live)
	n.ingested = s.ingested
	n.dict = s.dict
	postings := s.post != nil
	*s = *n
	if postings {
		// Built on s, not n: the index reads its store's rows and NumEdges.
		s.EnablePostings()
	}
}

// Dict returns the store's intern dictionary, creating it on first use. The
// dictionary is owned by the store's exclusive writer (the incremental
// engine) — it is not safe for concurrent use, so
// parallel mine workers must intern through private dictionaries instead
// (pair ids still agree; see intern.Dict).
func (s *Store) Dict() *intern.Dict {
	if s.dict == nil {
		s.dict = intern.NewDict(intern.NewLayout(s.g.Schema()))
	}
	return s.dict
}

// RestoreDict rebuilds a dictionary from st with intern.FromState, laid out
// over the store's schema, and makes it the store's, so it hands out the
// ids st recorded. A worker checkpoint restore calls it on the store it
// just built, before anything interns. It fails on a state interning could
// not have produced, and panics if the store already has a dictionary.
func (s *Store) RestoreDict(st intern.DictState) error {
	if s.dict != nil {
		panic("store: RestoreDict over an existing dictionary")
	}
	d, err := intern.FromState(intern.NewLayout(s.g.Schema()), st)
	if err != nil {
		return err
	}
	s.dict = d
	return nil
}

// Graph returns the underlying graph.
func (s *Store) Graph() *graph.Graph { return s.g }

// NumEdges returns |E| over the store: the number of live EArray rows.
func (s *Store) NumEdges() int { return len(s.ePtr) - s.deadCount }

// NumRows returns the EArray row id space bound (live + tombstoned rows).
// Iterate 0..NumRows-1 and skip !Alive rows to visit the live edge set.
func (s *Store) NumRows() int { return len(s.ePtr) }

// Alive reports whether EArray row e has not been tombstoned.
func (s *Store) Alive(e int32) bool { return s.dead == nil || !s.dead[e] }

// NumLRows and NumRRows return the LArray and RArray row counts.
func (s *Store) NumLRows() int { return len(s.lNode) }

// NumRRows returns the RArray row count.
func (s *Store) NumRRows() int { return len(s.rNode) }

// LVal returns the source-node value of edge e for node attribute attr.
func (s *Store) LVal(e int32, attr int) graph.Value {
	nv := len(s.g.Schema().Node)
	return s.lVals[int(s.eSrc[e])*nv+attr]
}

// EVal returns edge e's value for edge attribute attr.
func (s *Store) EVal(e int32, attr int) graph.Value {
	ne := len(s.g.Schema().Edge)
	return s.eVals[int(e)*ne+attr]
}

// RVal returns the destination-node value of edge e for node attribute attr.
func (s *Store) RVal(e int32, attr int) graph.Value {
	nv := len(s.g.Schema().Node)
	return s.rVals[int(s.ePtr[e])*nv+attr]
}

// LValsInto gathers the key column of rows for node attribute attr on the
// source side: dst[i] = LVal(rows[i], attr). It reuses dst's storage when
// large enough and returns the filled slice, len(rows) long.
func (s *Store) LValsInto(dst []uint16, rows []int32, attr int) []uint16 {
	dst = column(dst, len(rows))
	nv := len(s.g.Schema().Node)
	for i, e := range rows {
		dst[i] = uint16(s.lVals[int(s.eSrc[e])*nv+attr])
	}
	return dst
}

// EValsInto is LValsInto for edge attribute attr.
func (s *Store) EValsInto(dst []uint16, rows []int32, attr int) []uint16 {
	dst = column(dst, len(rows))
	ne := len(s.g.Schema().Edge)
	for i, e := range rows {
		dst[i] = uint16(s.eVals[int(e)*ne+attr])
	}
	return dst
}

// RValsInto is LValsInto for the destination side.
func (s *Store) RValsInto(dst []uint16, rows []int32, attr int) []uint16 {
	dst = column(dst, len(rows))
	nv := len(s.g.Schema().Node)
	for i, e := range rows {
		dst[i] = uint16(s.rVals[int(s.ePtr[e])*nv+attr])
	}
	return dst
}

// ROffsetsInto gathers, for each of rows, the offset of its destination
// node's values in the RArray value table: RVal(rows[i], attr) is
// RValAt(dst[i], attr) for every node attribute. A caller that reads many
// destination columns of one row set gathers the offsets once and reads
// each column with RValsAtInto, instead of reloading every row's RArray
// row per column. Offsets stay valid until the store is next mutated. It
// reuses dst's storage when large enough and returns the filled slice,
// len(rows) long.
func (s *Store) ROffsetsInto(dst []int32, rows []int32) []int32 {
	if len(s.rVals) > math.MaxInt32 {
		panic("store: RArray value table too large for int32 offsets")
	}
	if cap(dst) < len(rows) {
		dst = make([]int32, len(rows))
	}
	dst = dst[:len(rows)]
	nv := int32(len(s.g.Schema().Node))
	for i, e := range rows {
		dst[i] = s.ePtr[e] * nv
	}
	return dst
}

// RValsAtInto is RValsInto over offsets from ROffsetsInto: dst[i] =
// RValAt(offs[i], attr).
func (s *Store) RValsAtInto(dst []uint16, offs []int32, attr int) []uint16 {
	dst = column(dst, len(offs))
	vals := s.rVals
	for i, off := range offs {
		dst[i] = uint16(vals[int(off)+attr])
	}
	return dst
}

// RCountAt adds the histograms of every node attribute over offsets from
// ROffsetsInto to hists, hists[a] counting attribute a's values: each row's
// values lie side by side in the RArray value table, so one pass reads them
// once instead of once per attribute. The pass takes four rows at a time,
// loading each histogram once for their four values. A value beyond its
// attribute's histogram indicates data corruption upstream (the graph layer
// validates every stored value); RCountAt then clears every histogram and
// panics, rather than count it anywhere.
func (s *Store) RCountAt(hists [][]int32, offs []int32) {
	if nv := len(s.g.Schema().Node); len(hists) != nv {
		panic(fmt.Sprintf("store: %d histograms for %d node attributes", len(hists), nv))
	}
	// Rows sliced to len(hists) let the compiler drop their bounds checks.
	nv := len(hists)
	vals := s.rVals
	i := 0
	for ; i+4 <= len(offs); i += 4 {
		r0 := vals[int(offs[i]) : int(offs[i])+nv]
		r1 := vals[int(offs[i+1]) : int(offs[i+1])+nv]
		r2 := vals[int(offs[i+2]) : int(offs[i+2])+nv]
		r3 := vals[int(offs[i+3]) : int(offs[i+3])+nv]
		for a, h := range hists {
			v0, v1, v2, v3 := r0[a], r1[a], r2[a], r3[a]
			if int(v0) >= len(h) || int(v1) >= len(h) || int(v2) >= len(h) || int(v3) >= len(h) {
				panic(outOfHistogram(hists, a, max(v0, v1, v2, v3)))
			}
			h[v0]++
			h[v1]++
			h[v2]++
			h[v3]++
		}
	}
	for _, off := range offs[i:] {
		row := vals[int(off) : int(off)+nv]
		for a, h := range hists {
			v := row[a]
			if int(v) >= len(h) {
				panic(outOfHistogram(hists, a, v))
			}
			h[v]++
		}
	}
}

// outOfHistogram clears hists and describes value v of node attribute a,
// which lies beyond its histogram.
func outOfHistogram(hists [][]int32, a int, v graph.Value) string {
	for _, h := range hists {
		clear(h)
	}
	return fmt.Sprintf("store: node attribute %d value %d out of its histogram of %d", a, v, len(hists[a]))
}

// RValAt returns the value of node attribute attr at an offset from
// ROffsetsInto.
func (s *Store) RValAt(off int32, attr int) graph.Value { return s.rVals[int(off)+attr] }

// column returns dst resized to n, reallocating only when it is too small.
func column(dst []uint16, n int) []uint16 {
	if cap(dst) < n {
		return make([]uint16, n)
	}
	return dst[:n]
}

// EdgeID maps an EArray row back to the original graph edge id.
func (s *Store) EdgeID(e int32) int32 { return s.eID[e] }

// SrcNode and DstNode return the endpoints (graph node ids) of EArray row e.
func (s *Store) SrcNode(e int32) int32 { return s.lNode[s.eSrc[e]] }

// DstNode returns the destination graph node id of EArray row e.
func (s *Store) DstNode(e int32) int32 { return s.rNode[s.ePtr[e]] }

// AllEdges returns a fresh slice of every live EArray row id, ascending.
func (s *Store) AllEdges() []int32 {
	dst := make([]int32, 0, s.NumEdges())
	for i := 0; i < len(s.ePtr); i++ {
		if s.Alive(int32(i)) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// Validate cross-checks the store against its graph; used by tests and as a
// guard after Build on huge inputs.
func (s *Store) Validate() error {
	if s.NumEdges() != s.g.NumLiveEdges() {
		return fmt.Errorf("store: %d live EArray rows for %d live edges", s.NumEdges(), s.g.NumLiveEdges())
	}
	nv := len(s.g.Schema().Node)
	ne := len(s.g.Schema().Edge)
	for e := int32(0); int(e) < s.NumRows(); e++ {
		if !s.Alive(e) {
			continue
		}
		orig := int(s.eID[e])
		if int(s.SrcNode(e)) != s.g.Src(orig) || int(s.DstNode(e)) != s.g.Dst(orig) {
			return fmt.Errorf("store: edge %d endpoints mismatch", e)
		}
		for a := 0; a < nv; a++ {
			if s.LVal(e, a) != s.g.NodeValue(s.g.Src(orig), a) {
				return fmt.Errorf("store: edge %d LVal attr %d mismatch", e, a)
			}
			if s.RVal(e, a) != s.g.NodeValue(s.g.Dst(orig), a) {
				return fmt.Errorf("store: edge %d RVal attr %d mismatch", e, a)
			}
		}
		for a := 0; a < ne; a++ {
			if s.EVal(e, a) != s.g.EdgeValue(orig, a) {
				return fmt.Errorf("store: edge %d EVal attr %d mismatch", e, a)
			}
		}
	}
	return nil
}

// CompactSizeCells returns the cell count of the compact model per Section
// IV-A: |V|×(#AttrV+2) + |E|×(#AttrE+1) + |V|×#AttrV, with |V| counted as
// the actual LArray/RArray row counts (zero-degree nodes are dropped).
func (s *Store) CompactSizeCells() int {
	nv := len(s.g.Schema().Node)
	ne := len(s.g.Schema().Edge)
	return s.NumLRows()*(nv+2) + s.NumEdges()*(ne+1) + s.NumRRows()*nv
}

// SingleTableSizeCells returns the cell count of the single-table layout the
// paper's baseline BL1 materialises: |E| × (2×#AttrV + #AttrE).
func SingleTableSizeCells(g *graph.Graph) int {
	return g.NumLiveEdges() * (2*len(g.Schema().Node) + len(g.Schema().Edge))
}

// FlatTable is the single-table representation: one row per edge holding the
// source node attributes, the edge attributes, and the destination node
// attributes — the layout whose |E|×2×#AttrV term the compact model avoids.
// Baseline BL1 mines over this table.
type FlatTable struct {
	NodeAttrs int
	EdgeAttrs int
	Width     int
	Rows      int
	vals      []graph.Value
}

// Flatten materialises the single table for g (live edges only).
func Flatten(g *graph.Graph) *FlatTable {
	nv := len(g.Schema().Node)
	ne := len(g.Schema().Edge)
	t := &FlatTable{
		NodeAttrs: nv,
		EdgeAttrs: ne,
		Width:     2*nv + ne,
		Rows:      g.NumLiveEdges(),
	}
	t.vals = make([]graph.Value, t.Rows*t.Width)
	i := 0
	for e := 0; e < g.NumEdges(); e++ {
		if !g.EdgeAlive(e) {
			continue
		}
		row := t.vals[i*t.Width : (i+1)*t.Width]
		copy(row[:nv], g.NodeValues(g.Src(e)))
		copy(row[nv:nv+ne], g.EdgeValues(e))
		copy(row[nv+ne:], g.NodeValues(g.Dst(e)))
		i++
	}
	return t
}

// LCol, WCol, RCol map attribute indices to flat-table column indices.
func (t *FlatTable) LCol(attr int) int { return attr }

// WCol maps an edge attribute to its flat-table column.
func (t *FlatTable) WCol(attr int) int { return t.NodeAttrs + attr }

// RCol maps a destination node attribute to its flat-table column.
func (t *FlatTable) RCol(attr int) int { return t.NodeAttrs + t.EdgeAttrs + attr }

// Value returns the value at (row, col).
func (t *FlatTable) Value(row int32, col int) graph.Value {
	return t.vals[int(row)*t.Width+col]
}
