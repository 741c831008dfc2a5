package core

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"time"

	"grminer/internal/csort"
	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/intern"
	"grminer/internal/metrics"
	"grminer/internal/store"
	"grminer/internal/topk"
)

// Options configures a mining run (Definition 5 plus engineering knobs).
type Options struct {
	// MinSupp is the absolute support threshold (edge count, ≥ 1).
	MinSupp int
	// MinScore is the threshold on the ranking metric (the paper's minNhp).
	MinScore float64
	// K bounds the result list; 0 keeps every qualifying GR.
	K int
	// DynamicFloor enables the GRMiner(k) behaviour: once the top-k list is
	// full, the pruning threshold is upgraded to the k-th best score
	// (Algorithm 1, line 28). Requires K > 0 and an RHS-anti-monotone
	// metric to have any effect.
	DynamicFloor bool
	// Metric is the ranking metric; the zero value selects non-homophily
	// preference. Metrics without RHS anti-monotonicity (lift, conviction,
	// Piatetsky-Shapiro) disable score-based pruning automatically and are
	// ranked in post-processing, as Section VII prescribes.
	Metric metrics.Metric
	// MaxL, MaxW, MaxR cap descriptor sizes (0 = unlimited). Useful to
	// bound pattern length on very wide schemas.
	MaxL, MaxW, MaxR int
	// NoGeneralityFilter disables Definition 5 condition (2); every GR that
	// meets the thresholds then competes for the top-k directly.
	NoGeneralityFilter bool
	// IncludeTrivial also scores and reports trivial GRs. Definition 5
	// excludes them, but the confidence-ranked study of Table II shows them
	// on purpose (4 of Pokec's top-5 by conf are trivial homophily GRs);
	// the ConfMiner baseline sets this. Subtrees under a trivial GR are
	// score-pruned only for metrics that ignore the homophily effect
	// (conf, laplace, gain); for nhp Remark 2 forbids it.
	IncludeTrivial bool
	// ExactGenerality restores exact Definition 5 semantics under
	// DynamicFloor. The paper's dynamic threshold upgrade can prune a
	// subtree containing a *generalisation* that satisfies the user's
	// thresholds but not the upgraded floor; a later specialisation then
	// escapes condition (2) because the blocker was never enumerated. With
	// this option, candidates that pass the in-search blocker check are
	// verified against all their generalisations by direct (memoised)
	// support queries before entering the top-k. The queries intersect
	// per-(attribute, value) live-row bitmaps: the store's postings in an
	// engine's capture walks, the index a static mine builds at MinSupp
	// and shares with every worker. Off by default to match the paper's
	// GRMiner(k); with it, a dynamic-floor mine may fan out over every
	// core (see MineStore).
	ExactGenerality bool
	// StaticRHSOrder disables the dynamic tail ordering of Equation 8 (an
	// ablation of the paper's key pruning enabler). The same GRs are found
	// — subset-first enumeration still holds — but nhp loses its
	// anti-monotonicity whenever β is empty (Remark 2), so the miner must
	// withhold nhp pruning in exactly those states and examines strictly
	// more GRs. `grbench -exp ablation` quantifies the cost.
	StaticRHSOrder bool
}

// normalize fills defaults and validates. MinScore may be ±Inf (−Inf is a
// shard's capture gate), but not NaN: every comparison with NaN is false,
// so no threshold test would agree with another.
func (o Options) normalize() (Options, error) {
	if math.IsNaN(o.MinScore) {
		return o, fmt.Errorf("core: MinScore is NaN")
	}
	if o.Metric.Score == nil {
		o.Metric = metrics.NhpMetric
	}
	if o.MinSupp < 1 {
		o.MinSupp = 1
	}
	if o.K < 0 {
		return o, fmt.Errorf("core: negative K %d", o.K)
	}
	if o.DynamicFloor && o.K == 0 {
		return o, fmt.Errorf("core: DynamicFloor requires K > 0")
	}
	return o, nil
}

// Stats reports the work a run performed.
//
// grlint:wire v3
type Stats struct {
	// PartitionCalls counts counting-sort histograms, whether or not any
	// of their groups was then scattered.
	PartitionCalls int64
	// Examined counts non-trivial GRs whose score was computed (the paper's
	// "GRs examined"; Theorem 4(2) bounds which GRs ever get here).
	Examined int64
	// TrivialSeen counts trivial GR partitions traversed.
	TrivialSeen int64
	// PrunedSupp counts partitions cut by minSupp (Theorem 2(1)).
	PrunedSupp int64
	// PrunedScore counts subtrees cut by the score floor (Theorem 3).
	PrunedScore int64
	// Candidates counts non-trivial GRs meeting both thresholds.
	Candidates int64
	// Blocked counts candidates removed by the generality filter.
	Blocked int64
	// HomScans counts homophily-effect counting scans (cache misses).
	HomScans int64
	// PrunedGlobal counts the offers a shard's round-1 offer dropped under
	// the two-round protocol's OfferBound (globally unreachable support).
	PrunedGlobal int64
	// ShardOffers counts round-1 candidates offered across shard workers.
	ShardOffers int64
	// ExactCountRequests counts round-2 (candidate, shard) exact-count
	// fetches the sharded merge issued.
	ExactCountRequests int64
	// Duration is the wall-clock mining time.
	Duration time.Duration
	// A mine's phases, wall-clock: IndexTime builds the bitmap index,
	// PlanTime cuts the first level into tasks, WalkTime runs the tasks and
	// MergeTime merges the workers' lists. WalkBusy sums the time each
	// worker spent in a task, so WalkBusy below the workers × WalkTime
	// shows idle workers. Every static mine reports all five, at every
	// width (one worker's WalkBusy is its WalkTime). Every capture walk (an
	// incremental engine's scoped, seed or full re-mine, a shard worker's
	// offer and its Ingest re-mine) adds its PlanTime, WalkTime and WalkBusy
	// and leaves IndexTime and MergeTime zero: it walks the store's
	// maintained postings and replays its captures in order.
	IndexTime, PlanTime, WalkTime, WalkBusy, MergeTime time.Duration
}

// Result is a completed mining run.
type Result struct {
	// TopK lists the retained GRs, best first (Definition 5 rank).
	TopK []gr.Scored
	// Stats summarises the search.
	Stats Stats
	// Options echoes the normalized options used.
	Options Options
	// TotalEdges is |E| of the mined network (relative supports divide by
	// this).
	TotalEdges int
}

// Mine builds the compact store for g and runs GRMiner.
func Mine(g *graph.Graph, opt Options) (*Result, error) {
	return MineStore(store.Build(g), opt)
}

// MineStore runs GRMiner over a pre-built store (Algorithm 1). The store is
// read-only during the run and may be reused across runs.
//
// The mine plans its first-level subtrees and fans them out over
// GOMAXPROCS workers whenever its answer cannot depend on the schedule
// (fanOutExact: the generality filter is off, or the mine is not the
// paper's order-dependent dynamic-floor blocking and its patterns stay
// within the exact generality kernel's 20 conditions); otherwise one miner
// walks them in plan order. Either way the result equals the one-worker
// walk's.
func MineStore(st *store.Store, opt Options) (*Result, error) {
	res, _, err := mineStore(st, opt, runtime.GOMAXPROCS(0))
	return res, err
}

// lwPair is a recorded blocker for the generality filter: the LHS and edge
// descriptor of a GR that satisfied Definition 5 condition (1).
type lwPair struct {
	l, w gr.Descriptor
}

// blockerMap indexes recorded blockers by interned RHS descriptor id — a
// slice lookup instead of the string RHSKey the hot path used to build per
// probe (DESIGN.md §7). It is the single implementation of Definition 5
// condition (2)'s subset test, shared by the static mine's workers and the
// coordinators' final merges so blocking semantics cannot fork between
// them. Like its dictionary, a blockerMap is single-owner
// state: parallel workers each hold their own.
type blockerMap struct {
	dict *intern.Dict
	byR  [][]lwPair
	// touched lists the ids with recorded blockers so reset() clears in
	// O(recorded), letting one blockerMap serve every batch of an
	// incremental engine without reallocating.
	touched []intern.DescID
}

func newBlockerMap(dict *intern.Dict) *blockerMap {
	return &blockerMap{dict: dict}
}

// reset forgets every recorded blocker, keeping all allocations.
func (bm *blockerMap) reset() {
	for _, rid := range bm.touched {
		bm.byR[rid] = bm.byR[rid][:0]
	}
	bm.touched = bm.touched[:0]
}

// blocks reports whether a recorded blocker generalises g: same RHS, LHS
// and edge conditions subsets of g's.
func (bm *blockerMap) blocks(g gr.GR) bool {
	rid := bm.dict.NodeDesc(g.R)
	if int(rid) >= len(bm.byR) {
		return false
	}
	for _, b := range bm.byR[rid] {
		if b.l.SubsetOf(g.L) && b.w.SubsetOf(g.W) {
			return true
		}
	}
	return false
}

// record registers g as a future generality blocker.
func (bm *blockerMap) record(g gr.GR) {
	rid := bm.dict.NodeDesc(g.R)
	if n := bm.dict.NumDescs(); len(bm.byR) < n {
		bm.byR = append(bm.byR, make([][]lwPair, n-len(bm.byR))...)
	}
	if len(bm.byR[rid]) == 0 {
		bm.touched = append(bm.touched, rid)
	}
	bm.byR[rid] = append(bm.byR[rid], lwPair{l: g.L, w: g.W})
}

// minerScratch is the reusable allocation set behind one miner: the
// recursion buffers, the dense id-indexed tables (all indexed by ids from
// one intern.Dict), and the bitmap-descent scratch. A one-shot mine gets a
// fresh scratch; the incremental engines keep one per fan-out worker, each
// with a private dictionary, so per-batch re-mines run out of steady-state
// buffers instead of re-growing maps (DESIGN.md §7). reset() prepares it
// for the next run in O(entries touched last run); it never releases
// memory. Single-owner, like the dictionary it wraps.
type minerScratch struct {
	dict      *intern.Dict
	buffers   [][]int32
	groupBufs [][]csort.Group
	blockers  *blockerMap
	// rCounts memoises |E(r)| by interned RHS id, stored as count+1 so the
	// zero value means "unknown" and growth needs no sentinel fill.
	rCounts  []int32
	rTouched []intern.DescID
	// qual memoises ExactGenerality verdicts by interned GR id:
	// 0 unknown, 1 non-qualifying, 2 qualifying.
	qual        []uint8
	qualTouched []intern.GRID
	// genIdx is the bitmap index behind the ExactGenerality counts, |E(r)|
	// and bitmap descents: whoever starts a walk sets it (the store's
	// postings in a capture walk, the static mine's own index). reset drops
	// it (the store may mutate between runs); counter is the count kernel's
	// scratch.
	genIdx  *store.BitmapIndex
	counter bitmapCounter
	// andBMs[depth] is the bitmap of the partition a node at depth hands
	// its current child (see part): the AND a bitmap descent formed it by,
	// or the rows of a counting-sort node's child, packed for a bitmap
	// descent below. The child's subtree reads it until the node forms its
	// next child.
	andBMs []store.Bitmap
	// wits[depth] is a scoped re-mine's witness scratch for one recursion
	// depth (see witLevel); pointers, so growing the table never moves a
	// level an enclosing loop is still reading.
	wits []*witLevel
	// keys is the key column count gathers into. One serves every depth: a
	// column is dead once its node's groups are scattered, before any
	// recursion. The incremental engine keeps its scratch for its lifetime,
	// so per-depth columns would stay on its live heap.
	keys []uint16
	// slot is the next free offset of the row buffer the node being
	// planned scatters into (see take).
	slot int32
	// The attribute position lists of Equations 7/8 are schema-static, so
	// they are computed once per scratch and shared by every run.
	ordersInit  bool
	slOrder     []int
	swOrder     []int
	staticSR    []int
	nonHomAttrs []int
	homAttrs    []int
	// srBuf backs the dynamic RHS order of the live RHS subtree and rc is
	// that subtree's context. One of each suffices: RIGHT only ever extends
	// the RHS, so enterRight never nests.
	srBuf      []int
	rc         rctx
	homAttrBuf []int
	homWantBuf []graph.Value
	// rootHists[a] is an RHS subtree root's histogram of node attribute a
	// (see right), indexed by value. Between roots every entry is zero.
	rootHists [][]int32
}

func newMinerScratch(dict *intern.Dict) *minerScratch {
	return &minerScratch{dict: dict, blockers: newBlockerMap(dict)}
}

// reset clears per-run state, keeping every allocation (and the dictionary,
// whose ids are stable for its lifetime).
func (s *minerScratch) reset() {
	s.blockers.reset()
	for _, rid := range s.rTouched {
		s.rCounts[rid] = 0
	}
	s.rTouched = s.rTouched[:0]
	for _, id := range s.qualTouched {
		s.qual[id] = 0
	}
	s.qualTouched = s.qualTouched[:0]
	s.genIdx = nil
}

type miner struct {
	st     *store.Store
	schema *graph.Schema
	opt    Options
	metric metrics.Metric

	part *csort.Partitioner
	top  *topk.List
	// dict is scr's interning dictionary (hoisted for hot-path access),
	// private to this miner's scratch: ids stable across an engine's
	// batches belong to the store's dictionary, which only the pool interns
	// into (see fanOut).
	dict *intern.Dict
	// scr holds the recursion buffers and dense tables: the generality
	// blockers (recorded subset-first, so every generalisation precedes its
	// specialisations), the |E(r)| memo for metrics that need supp(r), and
	// the ExactGenerality verdict memo with its count kernel and bitmap
	// index. Every worker of a walk owns one.
	scr *minerScratch
	// capture, when set, receives every candidate satisfying Definition 5
	// condition (1) together with its exact counts, replacing the top-k and
	// generality machinery; the incremental engines' fan-out workers use it
	// to maintain their tracked candidate pools.
	capture func(g gr.GR, c metrics.Counts, score float64)
	// wit, when set (scoped incremental re-mines), holds the batch's
	// witnesses, and every descent narrows the node's witness set to the
	// batch edges still matching the child's descriptor: an inserted edge
	// while it matches l ∧ w ∧ r, a deleted edge while it matches l ∧ w
	// (R extensions pass it unchanged). A pool entrant's promoting edge
	// matches the entrant's descriptor, hence every ancestor's, so the walk
	// still reaches it; a descent left with no witness provably leads to no
	// entrant and is pruned. R positions go unfiltered only below a node
	// whose set still holds a deleted edge.
	wit *witnesses

	slOrder []int
	swOrder []int
	totalE  int
	stats   Stats
	// onRows, when set, sees every rowsOf request for a partition that has
	// a bitmap form, with its producing depth and whether the request
	// materialised its rows (the tests count materialisations).
	onRows func(depth int, bm store.Bitmap, fresh bool)
}

func newMiner(st *store.Store, opt Options) *miner {
	return newMinerScr(st, opt, nil)
}

// newMinerScr builds a miner on an existing scratch (nil for a fresh private
// one). Only a single-owner scratch may be passed: each fan-out worker of an
// incremental engine builds its miner once, on its own scratch.
func newMinerScr(st *store.Store, opt Options, scr *minerScratch) *miner {
	schema := st.Graph().Schema()
	maxDomain := 1
	for i := range schema.Node {
		if schema.Node[i].Domain > maxDomain {
			maxDomain = schema.Node[i].Domain
		}
	}
	for i := range schema.Edge {
		if schema.Edge[i].Domain > maxDomain {
			maxDomain = schema.Edge[i].Domain
		}
	}
	if scr == nil {
		scr = newMinerScratch(intern.NewDict(intern.NewLayout(schema)))
	}
	if !scr.ordersInit {
		scr.ordersInit = true
		scr.slOrder = lhsOrder(schema)
		scr.swOrder = edgeOrder(schema)
		scr.staticSR = staticRHSOrder(schema)
		scr.nonHomAttrs = schema.NonHomophilyNodeAttrs()
		scr.homAttrs = schema.HomophilyNodeAttrs()
		n := 0
		for a := range schema.Node {
			n += schema.Node[a].Domain + 1
		}
		hist := make([]int32, n)
		scr.rootHists = make([][]int32, len(schema.Node))
		for a := range schema.Node {
			scr.rootHists[a], hist = hist[:schema.Node[a].Domain+1], hist[schema.Node[a].Domain+1:]
		}
	}
	return &miner{
		st:      st,
		schema:  schema,
		opt:     opt,
		metric:  opt.Metric,
		part:    csort.New(maxDomain),
		top:     topk.New(opt.K),
		dict:    scr.dict,
		scr:     scr,
		slOrder: scr.slOrder,
		swOrder: scr.swOrder,
		totalE:  st.NumEdges(),
	}
}

// buffer returns the scratch slice for the given recursion depth, sized to
// hold n ids. Buffers persist across sibling partitions at the same depth:
// a partition's groups are fully processed (including deeper recursion into
// higher-depth buffers) before the next dimension reuses the slice.
func (m *miner) buffer(depth, n int) []int32 {
	s := m.scr
	for len(s.buffers) <= depth {
		s.buffers = append(s.buffers, nil)
	}
	s.buffers[depth] = slices.Grow(s.buffers[depth][:0], n)
	return s.buffers[depth][:n]
}

// count counts keys, the key column one of the store's batch gathers
// filled into the scratch's keys buffer, and starts depth's list of entered
// groups. It returns the Partitioner's groups, valid until the next count:
// the caller plans them — take for each group it will enter, scatter to
// move the rows of those it gave a slot — before any recursion counts
// again. The plan pass must not allocate or intern: it runs for every node
// of the walk.
func (m *miner) count(depth int, keys []uint16) []csort.Group {
	m.startPlan(depth)
	m.scr.keys = keys
	return m.part.Count(keys)
}

// countRoot is count for an RHS subtree root over rows destination rows:
// it turns attr's histogram of the root's one counting pass (see right)
// into groups, leaving that histogram zero. The caller gathers the key
// column into the scratch's keys buffer only if it slots a group, before
// scatter.
func (m *miner) countRoot(depth, attr, rows int) []csort.Group {
	m.startPlan(depth)
	return m.part.Groups(m.scr.rootHists[attr], rows)
}

// startPlan counts one histogram in PartitionCalls and starts depth's list
// of entered groups.
func (m *miner) startPlan(depth int) {
	m.stats.PartitionCalls++
	s := m.scr
	for len(s.groupBufs) <= depth {
		s.groupBufs = append(s.groupBufs, nil)
	}
	s.groupBufs[depth] = s.groupBufs[depth][:0]
	s.slot = 0
}

// take appends grp to depth's entered groups. With rows set it first gives
// grp the next slot of the node's row buffer, so scatter moves its rows
// there; otherwise the walk enters grp on its size alone (Lo == Hi).
func (m *miner) take(depth int, grp *csort.Group, rows bool) {
	s := m.scr
	if rows {
		grp.Lo, grp.Hi = s.slot, s.slot+grp.N
		s.slot = grp.Hi
	}
	s.groupBufs[depth] = append(s.groupBufs[depth], *grp)
}

// scatter moves the rows of every slotted group of the last count into
// out, skipping the pass when no group has a slot, and returns depth's
// entered groups, ascending like the histogram.
func (m *miner) scatter(depth int, data, out []int32) []csort.Group {
	s := m.scr
	if s.slot > 0 {
		m.part.Scatter(data, s.keys, out)
	}
	return s.groupBufs[depth]
}

// admit is the plan rule every counting-sort node shares: a group is
// entered only if its value is not null, it meets MinSupp (a cut counts in
// PrunedSupp), and, in a scoped walk (lv set), some witness of the node
// carries its value. vals is the position's carried values, consumed
// forward as the ascending groups pass.
func (m *miner) admit(grp *csort.Group, lv *witLevel, vals *[]graph.Value) bool {
	if grp.Val == uint16(graph.Null) {
		return false // null never forms a descriptor
	}
	if int(grp.N) < m.opt.MinSupp {
		m.stats.PrunedSupp++
		return false
	}
	if lv != nil {
		var ok bool
		if *vals, ok = seek(*vals, graph.Value(grp.Val)); !ok {
			return false // no witness carries the value ⇒ no entrant below it
		}
	}
	return true
}

// left is Algorithm 1's LEFT: extend the LHS descriptor by each node
// attribute at a position below maxPos, then branch into RIGHT, EDGE, and
// deeper LEFT on every surviving partition.
func (m *miner) left(p part, depth int, lhs gr.Descriptor, maxPos int) {
	if m.opt.MaxL > 0 && len(lhs) >= m.opt.MaxL {
		return
	}
	var lv *witLevel
	if m.wit != nil {
		lv = m.carried(depth, m.wit.colL(0), m.slOrder[:maxPos])
		switch {
		case len(lv.vals) == 0:
			return // no witness carries a value ⇒ no entrant below any group
		case m.bitmapsPayOff(p.n, lv):
			m.leftBitmaps(m.partBitmap(&p, depth), depth, lhs, maxPos, lv)
			return
		}
	}
	data := m.rowsOf(&p, depth)
	buf := m.buffer(depth, len(data))
	for pos := 0; pos < maxPos; pos++ {
		attr := m.slOrder[pos]
		var vals []graph.Value
		if lv != nil {
			if vals = lv.at(pos); len(vals) == 0 {
				continue // no witness carries a value ⇒ no entrant below any group
			}
		}
		groups := m.count(depth, m.st.LValsInto(m.scr.keys, data, attr))
		for i := range groups {
			if grp := &groups[i]; m.admit(grp, lv, &vals) {
				m.take(depth, grp, true)
			}
		}
		for _, grp := range m.scatter(depth, data, buf) {
			if lv != nil {
				m.narrow(depth, m.wit.colL(attr), graph.Value(grp.Val))
			}
			m.leftGroup(part{rows: buf[grp.Lo:grp.Hi], n: int(grp.N)}, depth, lhs.With(attr, graph.Value(grp.Val)), pos)
		}
	}
}

// leftGroup processes one LHS partition: branch into RIGHT, EDGE, and
// deeper LEFT (Algorithm 1, lines 12-14). RIGHT and EDGE hand p back in
// every form they gave it, so the first of the three consumers that needs
// p's rows, or its bitmap, makes them for all three.
func (m *miner) leftGroup(p part, depth int, lhs2 gr.Descriptor, pos int) {
	p = m.enterRight(p, depth+1, lhs2, nil)
	p = m.edge(p, depth+1, lhs2, nil, len(m.swOrder))
	m.left(p, depth+1, lhs2, pos)
}

// edge is Algorithm 1's EDGE: extend the edge descriptor, then branch into
// RIGHT and deeper EDGE. It returns p in every form it gave it (see
// leftGroup).
func (m *miner) edge(p part, depth int, lhs, w gr.Descriptor, maxPos int) part {
	if m.opt.MaxW > 0 && len(w) >= m.opt.MaxW {
		return p
	}
	var lv *witLevel
	if m.wit != nil {
		lv = m.carried(depth, m.wit.colW(0), m.swOrder[:maxPos])
		switch {
		case len(lv.vals) == 0:
			return p // no witness carries a value ⇒ no entrant below any group
		case m.bitmapsPayOff(p.n, lv):
			m.edgeBitmaps(m.partBitmap(&p, depth), depth, lhs, w, maxPos, lv)
			return p
		}
	}
	data := m.rowsOf(&p, depth)
	buf := m.buffer(depth, len(data))
	for pos := 0; pos < maxPos; pos++ {
		attr := m.swOrder[pos]
		var vals []graph.Value
		if lv != nil {
			if vals = lv.at(pos); len(vals) == 0 {
				continue // no witness carries a value ⇒ no entrant below any group
			}
		}
		groups := m.count(depth, m.st.EValsInto(m.scr.keys, data, attr))
		for i := range groups {
			if grp := &groups[i]; m.admit(grp, lv, &vals) {
				m.take(depth, grp, true)
			}
		}
		for _, grp := range m.scatter(depth, data, buf) {
			if lv != nil {
				m.narrow(depth, m.wit.colW(attr), graph.Value(grp.Val))
			}
			m.edgeGroup(part{rows: buf[grp.Lo:grp.Hi], n: int(grp.N)}, depth, lhs, w.With(attr, graph.Value(grp.Val)), pos)
		}
	}
	return p
}

// edgeGroup processes one edge-descriptor partition: branch into RIGHT and
// deeper EDGE (Algorithm 1, lines 20-21).
func (m *miner) edgeGroup(p part, depth int, lhs, w2 gr.Descriptor, pos int) {
	p = m.enterRight(p, depth+1, lhs, w2)
	m.edge(p, depth+1, lhs, w2, pos)
}

// bitmapsPayOff decides, per descent node of a scoped re-mine, whether
// serving the witnessed groups by intersecting the store's posting bitmaps
// beats counting sort. A scoped re-mine only
// needs the groups whose value some witness of the node carries, so ANDing
// the partition's bitmap against each carried value's live-row bitmap costs
// ~words-per-bitmap word ops per carried value (plus packing the partition
// once, when a counting-sort node handed it down as rows), where counting
// sort costs ~|data| per position that has any carried value (plus
// materialising the partition's rows once, when a bitmap descent handed it
// down as a bitmap). Nodes with few witnesses carry a handful of values and
// the bitmap walk wins near the root; wide witness sets (or deep, tiny
// partitions) are cheaper to counting-sort, since every AND sweeps the full
// row width no matter how small the partition is. A partition handed down
// as a bitmap packs for free, which tilts the costs toward bitmaps below a
// bitmap descent, but the formula deliberately ignores the form, so a
// node's path does not depend on it; retuning the formula is a change of
// its own, to be measured on its own.
func (m *miner) bitmapsPayOff(dataLen int, lv *witLevel) bool {
	words := (m.st.NumRows() + 63) / 64
	active := 0
	for p := 1; p < len(lv.offs); p++ {
		if lv.offs[p] > lv.offs[p-1] {
			active++
		}
	}
	return words*len(lv.vals) < active*dataLen
}

// witLevel is one recursion depth's witness scratch in a scoped re-mine.
// set is the witness set of the node the depth's loop last entered (level
// 0 holds the root set, every witness); vals lists, for each attribute
// position of the depth's loop, the distinct non-null values the enclosing
// node's witnesses carry there, ascending, with offs[p]:offs[p+1] bounding
// position p. A loop at depth d reads its node's set from level d-1 and
// writes its children's into level d, the same discipline as the row
// buffers, so no level is overwritten while a loop still iterates it.
// Storage is O(depth × batch) and kept for the scratch's lifetime.
type witLevel struct {
	set  []int32
	vals []graph.Value
	offs []int32
}

// at returns the carried values of loop position pos.
func (lv *witLevel) at(pos int) []graph.Value { return lv.vals[lv.offs[pos]:lv.offs[pos+1]] }

// witLevel returns depth's witness scratch, creating it on first use.
func (m *miner) witLevel(depth int) *witLevel {
	s := m.scr
	for len(s.wits) <= depth {
		s.wits = append(s.wits, &witLevel{})
	}
	return s.wits[depth]
}

// carried fills depth's level with the values the node's witnesses carry
// in columns col0+attr for each attribute of order, and returns the level.
func (m *miner) carried(depth, col0 int, order []int) *witLevel {
	set := m.witLevel(depth - 1).set
	lv := m.witLevel(depth)
	lv.vals = lv.vals[:0]
	lv.offs = append(lv.offs[:0], 0)
	for _, attr := range order {
		lo := len(lv.vals)
		for _, i := range set {
			if v := m.wit.val(i, col0+attr); v != graph.Null {
				lv.vals = append(lv.vals, v)
			}
		}
		seg := lv.vals[lo:]
		slices.Sort(seg)
		lv.vals = lv.vals[:lo+len(slices.Compact(seg))]
		lv.offs = append(lv.offs, int32(len(lv.vals)))
	}
	return lv
}

// narrow sets depth's witness set to the witnesses of the node (level
// depth-1) that its child extended by val in col keeps, and returns it.
func (m *miner) narrow(depth, col int, val graph.Value) []int32 {
	parent := m.witLevel(depth - 1).set
	lv := m.witLevel(depth)
	lv.set = lv.set[:0]
	for _, i := range parent {
		if m.wit.keeps(i, col, val) {
			lv.set = append(lv.set, i)
		}
	}
	return lv.set
}

// seek advances the ascending vals past every value below v and reports
// whether v comes next. Counting sort yields groups ascending, so one
// forward pass matches a partition's groups against its carried values.
func seek(vals []graph.Value, v graph.Value) ([]graph.Value, bool) {
	for len(vals) > 0 && vals[0] < v {
		vals = vals[1:]
	}
	return vals, len(vals) > 0 && vals[0] == v
}

// part is one partition of the walk, E(l ∧ w ∧ r) of the node it feeds. A
// counting-sort node hands each child its rows, the span of the node's row
// buffer scatter moved them to (empty when the plan moved none; see
// rightRows). A bitmap descent hands each child, instead, the live-row
// bitmap of the AND that formed it: read-only, valid until the descent
// forms its next child. n is the size in either form. A consumer asks for
// the form it needs: rowsOf materialises a bitmap partition's rows,
// partBitmap packs a row partition's bitmap, each on the first request
// and into scratch of the depth that produced the partition, which its
// producer does not use. The partition keeps what they made, so a LEFT
// child's three consumers share one.
type part struct {
	rows []int32
	bm   store.Bitmap
	n    int
}

// rowsOf returns the rows of p, the partition a node at depth consumes,
// materialising a bitmap partition's into the row buffer of depth-1: its
// producer, a bitmap descent, never fills that buffer itself.
func (m *miner) rowsOf(p *part, depth int) []int32 {
	if p.bm == nil {
		return p.rows
	}
	fresh := p.rows == nil
	if fresh {
		p.rows = p.bm.RowsInto(m.buffer(depth-1, p.n))
	}
	if m.onRows != nil {
		m.onRows(depth-1, p.bm, fresh)
	}
	return p.rows
}

// partBitmap returns the live-row bitmap of p, the partition a bitmap
// descent at depth refines, packing a row partition's into the AND scratch
// of depth-1: its producer, a counting-sort node, never forms a bitmap
// there.
func (m *miner) partBitmap(p *part, depth int) store.Bitmap {
	if p.bm != nil {
		return p.bm
	}
	if p.n == 0 {
		panic("core: bitmap descent over an empty partition")
	}
	// Partitions keep their rows ascending, so setting the last row first
	// sizes the bitmap once, zeroing its words, instead of regrowing it word
	// by word.
	bm := m.andScratch(depth - 1)[:0].Set(p.rows[p.n-1])
	for _, row := range p.rows {
		bm = bm.Set(row)
	}
	m.scr.andBMs[depth-1] = bm
	p.bm = bm
	return bm
}

// andScratch returns depth's AND scratch bitmap, creating it on first use.
func (m *miner) andScratch(depth int) store.Bitmap {
	s := m.scr
	for len(s.andBMs) <= depth {
		s.andBMs = append(s.andBMs, nil)
	}
	return s.andBMs[depth]
}

// child forms the partition a bitmap descent at depth hands its next
// child: data ∧ live(val) in depth's AND scratch, counted in the same pass.
func (m *miner) child(depth int, data, val store.Bitmap) part {
	bm, n := store.AndCountInto(m.andScratch(depth), data, val)
	m.scr.andBMs[depth] = bm
	return part{bm: bm, n: n}
}

// leftBitmaps is the bitmap form of left's loop body: iterate only the
// values the node's witnesses carry (lv), ascending — the same group order
// counting sort yields — so the walk emits candidates in the identical
// sequence, and captures and checkpoints stay deterministic. A value absent
// from the partition intersects to the empty set, mirroring the group
// counting sort never forms.
func (m *miner) leftBitmaps(data store.Bitmap, depth int, lhs gr.Descriptor, maxPos int, lv *witLevel) {
	idx := m.scr.genIdx
	for pos := 0; pos < maxPos; pos++ {
		attr := m.slOrder[pos]
		for _, val := range lv.at(pos) {
			c := m.child(depth, data, idx.LBitmap(attr, val))
			if c.n == 0 {
				continue
			}
			if c.n < m.opt.MinSupp {
				m.stats.PrunedSupp++
				continue
			}
			m.narrow(depth, m.wit.colL(attr), val)
			m.leftGroup(c, depth, lhs.With(attr, val), pos)
		}
	}
}

// edgeBitmaps is the bitmap form of edge's loop body; see leftBitmaps.
func (m *miner) edgeBitmaps(data store.Bitmap, depth int, lhs, w gr.Descriptor, maxPos int, lv *witLevel) {
	idx := m.scr.genIdx
	for pos := 0; pos < maxPos; pos++ {
		attr := m.swOrder[pos]
		for _, val := range lv.at(pos) {
			c := m.child(depth, data, idx.WBitmap(attr, val))
			if c.n == 0 {
				continue
			}
			if c.n < m.opt.MinSupp {
				m.stats.PrunedSupp++
				continue
			}
			m.narrow(depth, m.wit.colW(attr), val)
			m.edgeGroup(c, depth, lhs, w.With(attr, val), pos)
		}
	}
}

// rightBitmaps is the bitmap form of right's loop body; see leftBitmaps.
// Never entered below a node whose witnesses hold a deleted edge — that
// node's R extensions must examine every RHS group, which is exactly the
// counting-sort walk.
func (m *miner) rightBitmaps(rc *rctx, data store.Bitmap, depth int, rhs gr.Descriptor, maxPos int, lv *witLevel) {
	idx := m.scr.genIdx
	if len(rhs) == 0 {
		// A bitmap root counts no histogram: it intersects for each
		// homophily effect instead, one AND-count per homophily attribute
		// of l at a position some witness carries a value at. No RHS below
		// takes a value at any other position (witness sets only narrow).
		for pos := 0; pos < maxPos; pos++ {
			attr := rc.sr[pos]
			if lval, ok := rc.lhs.Get(attr); ok && m.schema.Node[attr].Homophily && len(lv.at(pos)) > 0 {
				rc.recordHom(attr, store.AndCount(data, idx.RBitmap(attr, lval)))
			}
		}
	}
	for pos := 0; pos < maxPos; pos++ {
		attr := rc.sr[pos]
		for _, val := range lv.at(pos) {
			c := m.child(depth, data, idx.RBitmap(attr, val))
			if c.n == 0 {
				continue
			}
			if c.n < m.opt.MinSupp {
				m.stats.PrunedSupp++
				continue
			}
			m.narrow(depth, m.wit.colR(attr), val)
			m.rightGroup(rc, c, depth, rhs.With(attr, val), pos)
		}
	}
}

// rctx is the context of one RHS-expansion subtree: the base partition
// E(l ∧ w) it hangs off, consumed by the subtree's root at depth, and its
// size lw (LW), the fixed l and w, the dynamic RHS order for this l, and
// the homophily-effect supports (Section IV-D: every supp(l -w-> l[β]) a
// descendant needs is countable from base).
//
// A single-attribute effect supp(l -w-> l[a]) is the size of the group
// R(a = l[a]) of base, which the subtree's root counts anyway: hom1[a]
// holds it once hom1Set has bit a. The root counts position p_a before it
// enters any subtree whose RHS holds a, and records it before planning
// that position's groups, so every read finds it. Larger β are counted by
// a scan of base, memoised as a parallel key/value pair of slices scanned
// linearly — a subtree sees at most 2^|Hom| distinct β masks, and in
// practice a handful.
//
// offs holds base's destination value offsets (store.ROffsetsInto) once
// offsOK is set: the root counts every position through them and gathers
// the key column of each position it scatters, and every β scan reads
// destination values through them.
//
// A root RIGHT task (walkTask) hangs off the whole live edge list with
// empty l and w: its β is always empty and no subtree root lies below it,
// so it reads lw alone and leaves base empty.
type rctx struct {
	base    part
	depth   int
	lw      int
	lhs, w  gr.Descriptor
	sr      []int
	offs    []int32
	offsOK  bool
	hom1    []int32
	hom1Set uint64
	homKeys []uint64
	homVals []int
}

// recordHom records supp(l -w-> l[attr]) = n (see rctx).
func (rc *rctx) recordHom(attr, n int) {
	rc.hom1[attr] = int32(n)
	rc.hom1Set |= 1 << uint(attr)
}

// recordHomGroup records supp(l -w-> l[attr]) from the root's histogram of
// attr: the size of the group of lval, or 0 when base has none.
func (rc *rctx) recordHomGroup(attr int, lval graph.Value, groups []csort.Group) {
	n := 0
	for i := range groups {
		if v := graph.Value(groups[i].Val); v >= lval {
			if v == lval {
				n = int(groups[i].N)
			}
			break
		}
	}
	rc.recordHom(attr, n)
}

// destOffsets returns base's destination value offsets, gathering them on
// the subtree's first request.
func (m *miner) destOffsets(rc *rctx) []int32 {
	if !rc.offsOK {
		rc.offs, rc.offsOK = m.st.ROffsetsInto(rc.offs, m.rowsOf(&rc.base, rc.depth)), true
	}
	return rc.offs
}

// enterRight opens an RHS-expansion subtree below the node for (lhs, w),
// its root at depth over base. The context and its dynamic order live in
// the scratch: RIGHT only ever extends the RHS, so at most one subtree is
// live at a time. It returns base in every form the subtree gave it (see
// leftGroup).
func (m *miner) enterRight(base part, depth int, lhs, w gr.Descriptor) part {
	rc := &m.scr.rc
	rc.base, rc.depth, rc.lw, rc.lhs, rc.w = base, depth, base.n, lhs, w
	rc.offsOK = false
	if rc.hom1 == nil {
		rc.hom1 = make([]int32, len(m.schema.Node))
	}
	rc.hom1Set = 0
	rc.homKeys = rc.homKeys[:0]
	rc.homVals = rc.homVals[:0]
	if m.opt.StaticRHSOrder {
		rc.sr = m.scr.staticSR
	} else {
		rc.sr = m.rhsOrderInto(lhs)
	}
	m.right(rc, base, depth, nil, len(rc.sr))
	return rc.base
}

// rhsOrderInto is rhsOrder (Equation 8) writing into the scratch's order
// buffer, valid until the next enterRight.
func (m *miner) rhsOrderInto(lhs gr.Descriptor) []int {
	s := m.scr
	order := s.srBuf[:0]
	order = append(order, s.nonHomAttrs...)
	for _, a := range s.homAttrs {
		if !lhs.Has(a) {
			order = append(order, a) // Hr1
		}
	}
	for _, a := range s.homAttrs {
		if lhs.Has(a) {
			order = append(order, a) // Hr2
		}
	}
	s.srBuf = order
	return order
}

// right is Algorithm 1's RIGHT: extend the RHS descriptor, score the
// resulting GRs, prune by supp (Theorem 2(1)) and — for anti-monotone
// metrics — by the score floor (Theorem 3), and feed candidates through the
// generality filter into the top-k list.
//
// The histogram settles most groups: a group's size is its LWR, and LW and
// the homophily effect come from the base partition. So the plan moves the
// rows of a group only when the walk will recurse below it (rightRows);
// every other entered group is scored on its size alone. The subtree's root
// (rhs empty) works on its context's base, so the subtree's β scans and
// enterRight's caller share the forms the root gave it; it counts all its
// positions in one pass over the base's destination offsets, and its
// histogram of a homophily attribute the LHS constrains is that
// attribute's single-attribute homophily effect.
func (m *miner) right(rc *rctx, p part, depth int, rhs gr.Descriptor, maxPos int) {
	if !m.rightExtends(len(rhs), maxPos) {
		return
	}
	root := len(rhs) == 0
	data := &p
	if root {
		data = &rc.base
	}
	// lv stays nil (no value filter) in the static mine and below a node
	// whose witnesses still hold a deleted edge; a scoped walk narrows the
	// set at every descent either way.
	var lv *witLevel
	if m.wit != nil && !m.wit.hasDelete(m.witLevel(depth-1).set) {
		lv = m.carried(depth, m.wit.colR(0), rc.sr[:maxPos])
		switch {
		case len(lv.vals) == 0:
			return // no witness carries a value ⇒ no entrant below any group
		case m.bitmapsPayOff(p.n, lv):
			m.rightBitmaps(rc, m.partBitmap(data, depth), depth, rhs, maxPos, lv)
			return
		}
	}
	// A child's RHS is rhs ∧ (attr : v). It is trivial when rhs is (or is
	// empty) and v repeats the LHS value of a homophily attr; its β is
	// rhs's plus attr when v differs from that LHS value.
	rhsTrivial := len(rhs) == 0 || gr.GR{L: rc.lhs, R: rhs}.Trivial(m.schema)
	rhsMask := m.betaMask(rc.lhs, rhs)
	// A subtree root counts every position over the same rows, so it
	// counts them all in one pass over its base's destination offsets,
	// reading each row's values side by side, and gathers a position's key
	// column only when its plan moves rows.
	var offs []int32
	if root {
		offs = m.destOffsets(rc)
		m.st.RCountAt(m.scr.rootHists, offs)
	}
	rows := m.rowsOf(data, depth)
	buf := m.buffer(depth, len(rows))
	for pos := 0; pos < maxPos; pos++ {
		attr := rc.sr[pos]
		var vals []graph.Value
		if lv != nil {
			if vals = lv.at(pos); len(vals) == 0 {
				if root {
					// The next root counts into this histogram
					// again; Groups would panic on what is left.
					clear(m.scr.rootHists[attr])
				}
				continue // no witness carries a value ⇒ no entrant below any group
			}
		}
		// homL: attr is a homophily attribute the LHS constrains to lval.
		lval, homL := rc.lhs.Get(attr)
		homL = homL && m.schema.Node[attr].Homophily
		var groups []csort.Group
		if root {
			groups = m.countRoot(depth, attr, len(rows))
		} else {
			groups = m.count(depth, m.st.RValsInto(m.scr.keys, rows, attr))
		}
		if len(rhs) == 0 && homL {
			rc.recordHomGroup(attr, lval, groups)
		}
		for i := range groups {
			grp := &groups[i]
			if !m.admit(grp, lv, &vals) {
				continue
			}
			v := graph.Value(grp.Val)
			trivial, mask := rhsTrivial && homL && lval == v, rhsMask
			if homL && lval != v {
				mask |= 1 << uint(attr)
			}
			m.take(depth, grp, m.rightRows(rc, int(grp.N), len(rhs)+1, pos, trivial, mask))
		}
		if root && m.scr.slot > 0 {
			m.scr.keys = m.st.RValsAtInto(m.scr.keys, offs, attr)
		}
		for _, grp := range m.scatter(depth, rows, buf) {
			if m.wit != nil {
				m.narrow(depth, m.wit.colR(attr), graph.Value(grp.Val))
			}
			m.rightGroup(rc, part{rows: buf[grp.Lo:grp.Hi], n: int(grp.N)}, depth, rhs.With(attr, graph.Value(grp.Val)), pos)
		}
	}
}

// rightExtends reports whether right extends an RHS of rhsLen conditions at
// any of maxPos positions: not at position 0, and not once MaxR is reached.
func (m *miner) rightExtends(rhsLen, maxPos int) bool {
	return maxPos > 0 && (m.opt.MaxR == 0 || rhsLen < m.opt.MaxR)
}

// rightRows reports whether the walk needs the rows of an RHS child of n
// rows whose RHS has rhsLen conditions at position pos, with the given
// triviality and β mask: only to recurse below it. A child's own children
// cannot extend at position 0 or at MaxR, and rightGroup cuts a non-trivial
// child whose score already falls below the floor. The floor only rises
// during a walk, so the floor rightGroup reads later cuts it too. The test
// allocates nothing and never interns: it reads no |E(r)|, so a metric that
// needs one gets only the position and MaxR rules.
func (m *miner) rightRows(rc *rctx, n, rhsLen, pos int, trivial bool, mask uint64) bool {
	if !m.rightExtends(rhsLen, pos) {
		return false
	}
	if trivial || m.metric.NeedsR || !m.scorePrunable(mask) {
		return true
	}
	return m.metric.Score(m.rightCounts(rc, n, mask)) >= m.floor()
}

// scorePrunable reports whether Theorem 3 licenses cutting the subtree of a
// non-trivial GR with β mask by its score.
func (m *miner) scorePrunable(mask uint64) bool {
	// Ablation mode: without the dynamic ordering, a homophily value
	// conflicting with the LHS may still be appended below a node with an
	// empty β, flipping β to non-empty and possibly raising nhp (Remark 2)
	// — the pruning Theorem 3 licenses is unavailable there.
	return m.metric.RHSAntiMonotone && !(m.opt.StaticRHSOrder && m.metric.NeedsHom && mask == 0)
}

// rightCounts returns the counts of an RHS child of n rows with β mask, all
// but |E(r)|: LWR is the group size, LW and the homophily effect come from
// the base partition.
func (m *miner) rightCounts(rc *rctx, n int, mask uint64) metrics.Counts {
	c := metrics.Counts{LWR: n, LW: rc.lw, E: m.totalE}
	if m.metric.NeedsHom && mask != 0 {
		c.Hom = m.homEffect(rc, mask)
	}
	return c
}

// rightGroup scores one RHS partition p and recurses (the body of
// Algorithm 1, lines 25-29). A counting-sort parent moved p's rows only
// when the walk needs them (rightRows); they are empty otherwise.
func (m *miner) rightGroup(rc *rctx, p part, depth int, rhs2 gr.Descriptor, pos int) {
	g := gr.GR{L: rc.lhs, W: rc.w, R: rhs2}
	n := p.n

	if g.Trivial(m.schema) {
		// Under Definition 5 trivial GRs are never reported and —
		// crucially — never score-pruned: extending a trivial RHS with a
		// non-matching homophily value can *raise* nhp (Remark 2), so
		// Theorem 3 does not license cutting this subtree. With
		// IncludeTrivial (the Table II conf study) they are scored like
		// any other GR; their β is empty so Hom stays 0, and pruning below
		// them is allowed only for metrics that never read the homophily
		// effect.
		m.stats.TrivialSeen++
		if m.opt.IncludeTrivial {
			c := m.rightCounts(rc, n, 0)
			if m.metric.NeedsR {
				c.R = m.rCount(g)
			}
			score := m.metric.Score(c)
			m.stats.Examined++
			if score >= m.opt.MinScore {
				m.stats.Candidates++
				m.emit(g, c, score)
			}
			if m.metric.RHSAntiMonotone && !m.metric.NeedsHom && score < m.floor() {
				m.stats.PrunedScore++
				return
			}
		}
		m.descend(rc, p, depth, rhs2, pos)
		return
	}

	var mask uint64
	if m.metric.NeedsHom {
		mask = m.betaMask(rc.lhs, rhs2)
	}
	c := m.rightCounts(rc, n, mask)
	if m.metric.NeedsR {
		c.R = m.rCount(g)
	}
	score := m.metric.Score(c)
	m.stats.Examined++

	// Candidates are recorded before any floor pruning so that every
	// *examined* GR satisfying Definition 5 condition (1) becomes a
	// generality blocker, even when the dynamic floor stops it from
	// entering the top-k.
	if score >= m.opt.MinScore {
		m.stats.Candidates++
		m.emit(g, c, score)
	}
	if m.scorePrunable(mask) && score < m.floor() {
		// Theorem 3: every RHS extension of this non-trivial GR scores no
		// higher; cut the subtree.
		m.stats.PrunedScore++
		return
	}
	m.descend(rc, p, depth, rhs2, pos)
}

// descend runs RIGHT below the RHS partition p. It panics when the walk
// would recurse into a partition whose rows were never moved: a plan rule
// (rightRows) that skipped the rows of a group rightGroup does not cut
// would otherwise mine an empty partition and silently lose its subtree. A
// partition handed down as a bitmap counts as moved.
func (m *miner) descend(rc *rctx, p part, depth int, rhs2 gr.Descriptor, pos int) {
	if !m.rightExtends(len(rhs2), pos) {
		return
	}
	if p.bm == nil && len(p.rows) != p.n {
		panic("core: RIGHT recursion into unscattered rows")
	}
	m.right(rc, p, depth+1, rhs2, pos)
}

// floor returns the effective pruning threshold: the user's MinScore,
// upgraded to the k-th best score under GRMiner(k) semantics.
func (m *miner) floor() float64 {
	f := m.opt.MinScore
	if m.opt.DynamicFloor {
		if fl, ok := m.top.Floor(); ok && fl > f {
			f = fl
		}
	}
	return f
}

// emit routes a candidate meeting Definition 5 condition (1) either to the
// capture hook (pool-building runs of the incremental engine, which need the
// raw counts and no blocking) or through the regular generality filter and
// top-k machinery.
func (m *miner) emit(g gr.GR, c metrics.Counts, score float64) {
	if m.capture != nil {
		m.capture(g, c, score)
		return
	}
	m.consider(gr.Scored{GR: g, Supp: c.LWR, Score: score, Conf: metrics.Conf(c)})
}

// consider applies Definition 5 condition (2) — drop a GR if a strictly more
// general GR already satisfied condition (1) — then offers the survivor to
// the top-k list and records it as a future blocker. The blocker map is
// checked first: a recorded blocker is itself a qualifying generalisation,
// so a hit proves the verdict the exact (and expensive) generalisation scan
// would reach.
func (m *miner) consider(s gr.Scored) {
	if m.opt.NoGeneralityFilter {
		m.top.Consider(s)
		return
	}
	if m.scr.blockers.blocks(s.GR) {
		m.stats.Blocked++
		return
	}
	if m.opt.ExactGenerality && m.hasQualifyingGeneralization(s.GR) {
		m.stats.Blocked++
		return
	}
	m.scr.blockers.record(s.GR)
	m.top.Consider(s)
}

// hasQualifyingGeneralization reports whether any strict generalisation of g
// (a GR with the same RHS and a subset of g's LHS and edge conditions)
// satisfies Definition 5 condition (1). Used by ExactGenerality to repair
// the dynamic-floor corner case. Each generalisation's counts come from the
// bitmap count kernel over the store's live rows — the edge set the search
// itself counts — and verdicts are memoised per interned GR id.
func (m *miner) hasQualifyingGeneralization(g gr.GR) bool {
	n := len(g.L) + len(g.W)
	if n == 0 || n > maxExactConditions {
		// No strict generalisation exists, or the enumeration would explode;
		// fall back to the in-search blocker set. A fanned-out worker holds
		// that set for its own subtrees only, so a static mine whose patterns
		// can exceed maxExactConditions never fans out (fanOutExact); such
		// runs are otherwise pathological (2^20 subset counts per candidate).
		return false
	}
	scr := m.scr
	for mask := 0; mask < (1<<n)-1; mask++ { // all proper subsets of (L ∪ W)
		var l, w gr.Descriptor
		for i, c := range g.L {
			if mask&(1<<i) != 0 {
				l = l.With(c.Attr, c.Val)
			}
		}
		for i, c := range g.W {
			if mask&(1<<(len(g.L)+i)) != 0 {
				w = w.With(c.Attr, c.Val)
			}
		}
		cand := gr.GR{L: l, W: w, R: g.R}
		gid := m.dict.GR(cand)
		if int(gid) < len(scr.qual) && scr.qual[gid] != 0 {
			if scr.qual[gid] == 2 {
				return true
			}
			continue
		}
		qual := false
		// A trivial generalisation can block only when IncludeTrivial
		// admits trivial GRs as candidates — mirroring the blocker map,
		// which records trivial candidates in exactly that mode. (Its β is
		// empty, so the kernel's score matches the in-search one.)
		if !cand.Trivial(m.schema) || m.opt.IncludeTrivial {
			c := m.generalityCounts(cand)
			qual = c.LWR >= m.opt.MinSupp && m.metric.Score(c) >= m.opt.MinScore
		}
		if n := m.dict.NumGRs(); len(scr.qual) < n {
			scr.qual = append(scr.qual, make([]uint8, n-len(scr.qual))...)
		}
		scr.qualTouched = append(scr.qualTouched, gid)
		if qual {
			scr.qual[gid] = 2
			return true
		}
		scr.qual[gid] = 1
	}
	return false
}

// generalityCounts returns g's exact counts over the store's live rows from
// the bitmap count kernel, filling the fields the metric reads.
func (m *miner) generalityCounts(g gr.GR) metrics.Counts {
	idx := m.scr.genIdx
	m.scr.counter.intersectLW(idx, g)
	return m.scr.counter.count(idx, m.schema, m.metric, g)
}

// betaMask computes β (Equation 4) as a bitmask over node attribute
// indices: homophily attributes constrained on both sides with different
// values. Schemas are limited to 64 node attributes, far beyond any dataset
// in the paper.
func (m *miner) betaMask(lhs, rhs gr.Descriptor) uint64 {
	return betaMaskOf(m.schema, lhs, rhs)
}

// homEffect returns supp(l -w-> l[β]) for the β encoded by mask, counted
// within the subtree's base partition E(l ∧ w). This realises Section IV-D:
// case 1 (β ⊂ R) and case 2 (β = R) both read base, the partition whose
// earlier enumeration the paper's Property 2 relies on. A one-attribute β
// reads the count its root recorded (see rctx); a larger β is one scan of
// base, memoised per β.
func (m *miner) homEffect(rc *rctx, mask uint64) int {
	if mask&(mask-1) == 0 {
		if rc.hom1Set&mask == 0 {
			panic("core: homophily effect read before the RHS root counted it")
		}
		return int(rc.hom1[bits.TrailingZeros64(mask)])
	}
	for i, k := range rc.homKeys {
		if k == mask {
			return rc.homVals[i]
		}
	}
	m.stats.HomScans++
	// Gather the β attributes and their LHS values into the scratch buffers
	// (used only within this scan, so the single pair suffices).
	attrs := m.scr.homAttrBuf[:0]
	want := m.scr.homWantBuf[:0]
	for a := 0; a < len(m.schema.Node); a++ {
		if mask&(1<<uint(a)) == 0 {
			continue
		}
		lv, _ := rc.lhs.Get(a)
		attrs = append(attrs, a)
		want = append(want, lv)
	}
	m.scr.homAttrBuf, m.scr.homWantBuf = attrs, want
	count := 0
	for _, off := range m.destOffsets(rc) {
		match := true
		for i, a := range attrs {
			if m.st.RValAt(off, a) != want[i] {
				match = false
				break
			}
		}
		if match {
			count++
		}
	}
	rc.homKeys = append(rc.homKeys, mask)
	rc.homVals = append(rc.homVals, count)
	return count
}

// rCount returns |E(r)| over the whole live edge set, counted by the bitmap
// kernel over the walk's index and memoised per interned RHS id in a
// dense table (stored as count+1; 0 means unseen).
func (m *miner) rCount(g gr.GR) int {
	scr := m.scr
	rid := m.dict.NodeDesc(g.R)
	if int(rid) < len(scr.rCounts) {
		if v := scr.rCounts[rid]; v != 0 {
			return int(v) - 1
		}
	}
	count := scr.counter.countR(scr.genIdx, g.R)
	if n := m.dict.NumDescs(); len(scr.rCounts) < n {
		scr.rCounts = append(scr.rCounts, make([]int32, n-len(scr.rCounts))...)
	}
	scr.rCounts[rid] = int32(count) + 1
	scr.rTouched = append(scr.rTouched, rid)
	return count
}
