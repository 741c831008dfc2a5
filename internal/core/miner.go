package core

import (
	"fmt"
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
	// per-(attribute, value) live-row bitmaps: the store's postings, the
	// index a fanned-out mine builds and shares, or an index a sequential
	// miner fills lazily and drops when the mine returns (one pass over the
	// rows and ⌈rows/64⌉ words per distinct condition probed: 114 bitmaps,
	// 855 KB, on a 60k-edge Pokec-like mine). Off by default to match the
	// paper's GRMiner(k); with it, a dynamic-floor mine may fan out over
	// every core (see MineStore).
	ExactGenerality bool
	// StaticRHSOrder disables the dynamic tail ordering of Equation 8 (an
	// ablation of the paper's key pruning enabler). The same GRs are found
	// — subset-first enumeration still holds — but nhp loses its
	// anti-monotonicity whenever β is empty (Remark 2), so the miner must
	// withhold nhp pruning in exactly those states and examines strictly
	// more GRs. `grbench -exp ablation` quantifies the cost.
	StaticRHSOrder bool
	// PoolCap bounds the incremental engine's tracked candidate pool
	// (0 = unbounded; batch mining ignores it). With a cap, the pool keeps
	// its PoolCap best-scoring condition-(1) entries (plus any spilled
	// entry's generality blockers, a soft overflow) and spills the rest to a
	// score-ordered frontier recorded only as the highest spilled score.
	// Results stay exact: whenever the merged top-k cannot be proven
	// independent of the spilled frontier (its k-th score does not beat the
	// spill floor, or fewer than K results survive), the engine re-mines the
	// complete pool from the store before answering — re-mine-on-underflow,
	// never approximation. Requires K > 0: an unbounded result list can
	// never be proven independent of spilled entries. Only the single-store
	// incremental engine supports it; sharded pools are support-gated by the
	// pigeonhole threshold and bounding them would break offer completeness
	// (DESIGN.md §4e).
	PoolCap int
}

// normalize fills defaults and validates.
func (o Options) normalize() (Options, error) {
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
	if o.PoolCap < 0 {
		return o, fmt.Errorf("core: negative PoolCap %d", o.PoolCap)
	}
	if o.PoolCap > 0 && o.K == 0 {
		return o, fmt.Errorf("core: PoolCap requires K > 0 (an unbounded result can never be proven independent of spilled pool entries)")
	}
	return o, nil
}

// Stats reports the work a run performed.
//
// grlint:wire v2
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
	// PrunedGlobal counts subtrees a shard offer mine cut with the
	// two-round protocol's OfferBound (globally unreachable support).
	PrunedGlobal int64
	// ShardOffers counts round-1 candidates offered across shard workers.
	ShardOffers int64
	// ExactCountRequests counts round-2 (candidate, shard) exact-count
	// fetches the sharded merge issued.
	ExactCountRequests int64
	// Duration is the wall-clock mining time.
	Duration time.Duration
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
// The mine fans its first-level subtrees out over GOMAXPROCS workers
// whenever its answer cannot depend on the schedule (fanOutExact: the
// generality filter is off, or the mine is not the paper's order-dependent
// dynamic-floor blocking and its patterns stay within the exact generality
// kernel's 20 conditions); otherwise it runs the sequential walk. Either
// way the result equals the sequential run's.
func MineStore(st *store.Store, opt Options) (*Result, error) {
	return mineStore(st, opt, runtime.GOMAXPROCS(0))
}

// mineStore is MineStore on up to width workers.
func mineStore(st *store.Store, opt Options, width int) (*Result, error) {
	opt, err := opt.normalize()
	if err != nil {
		return nil, err
	}
	schema := st.Graph().Schema()
	if n := len(schema.Node); n > 64 {
		// betaMask packs node-attribute indices into a uint64.
		return nil, fmt.Errorf("core: %d node attributes exceed the supported maximum of 64", n)
	}
	if width > 1 && fanOutExact(opt, schema) {
		return mineParallel(st, opt, width), nil
	}
	m := newMiner(st, opt)
	start := time.Now()
	m.run()
	m.stats.Duration = time.Since(start)
	res := &Result{TopK: m.top.Items(), Stats: m.stats, Options: opt, TotalEdges: st.NumEdges()}
	return res, nil
}

// lwPair is a recorded blocker for the generality filter: the LHS and edge
// descriptor of a GR that satisfied Definition 5 condition (1).
type lwPair struct {
	l, w gr.Descriptor
}

// blockerMap indexes recorded blockers by interned RHS descriptor id — a
// slice lookup instead of the string RHSKey the hot path used to build per
// probe (DESIGN.md §7). It is the single implementation of Definition 5
// condition (2)'s subset test, shared by the sequential walk, the parallel
// workers, and the coordinators' final merges so blocking semantics cannot
// fork between them. Like its dictionary, a blockerMap is single-owner
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
	// and bitmap descents: the store's postings when it keeps them, the
	// index a fanned-out mine sets on every worker, else a lazy index built
	// on the run's first count. reset drops it (the store may
	// mutate between runs); counter is the count kernel's scratch.
	genIdx  *store.BitmapIndex
	counter bitmapCounter
	// dataBMs[depth] is the bitmap of the partition a bitmap descent is
	// refining; andBM the intersection output (consumed into a row buffer
	// before any deeper descent, so one suffices for all depths).
	dataBMs []store.Bitmap
	andBM   store.Bitmap
	// allRows is the AllEdgesInto scratch for root base partitions.
	allRows []int32
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
	// index. Fan-out workers each own one, like the sequential miner.
	scr *minerScratch
	// capture, when set, receives every candidate satisfying Definition 5
	// condition (1) together with its exact counts, replacing the top-k and
	// generality machinery; the incremental engines' fan-out workers use it
	// to maintain their tracked candidate pools.
	capture func(g gr.GR, c metrics.Counts, score float64)
	// bound, when set (shard offer mines under the two-round protocol),
	// additionally prunes subtrees whose GRs provably fail the *global*
	// support threshold — the local MinSupp here is the relaxed per-shard
	// one, so this is the only global pruning a shard walk gets.
	bound *OfferBound
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
	m.stats.PartitionCalls++
	s := m.scr
	s.keys = keys
	for len(s.groupBufs) <= depth {
		s.groupBufs = append(s.groupBufs, nil)
	}
	s.groupBufs[depth] = s.groupBufs[depth][:0]
	s.slot = 0
	return m.part.Count(s.keys)
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

// boundPrunes applies a shard offer's global bound to the child that
// extends (lhs, w, rhs) by (attr : grp.Val) on block's side, counting a cut
// in PrunedGlobal.
func (m *miner) boundPrunes(grp *csort.Group, lhs, w, rhs gr.Descriptor, block taskBlock, attr int) bool {
	if m.bound != nil && m.bound.prune(int(grp.N), lhs, w, rhs, block, attr, graph.Value(grp.Val)) {
		m.stats.PrunedGlobal++
		return true
	}
	return false
}

// run is Algorithm 1's Main: RIGHT, EDGE, LEFT over the full edge set.
func (m *miner) run() {
	if m.totalE == 0 {
		return
	}
	all := m.st.AllEdgesInto(m.scr.allRows)
	m.scr.allRows = all
	m.enterRight(all, 1, nil, nil)
	m.edge(all, 1, nil, nil, len(m.swOrder))
	m.left(all, 1, nil, len(m.slOrder))
}

// left is Algorithm 1's LEFT: extend the LHS descriptor by each node
// attribute at a position below maxPos, then branch into RIGHT, EDGE, and
// deeper LEFT on every surviving partition.
func (m *miner) left(data []int32, depth int, lhs gr.Descriptor, maxPos int) {
	if m.opt.MaxL > 0 && len(lhs) >= m.opt.MaxL {
		return
	}
	var lv *witLevel
	if m.wit != nil {
		lv = m.carried(depth, m.wit.colL(0), m.slOrder[:maxPos])
		if m.useBitmaps() && m.bitmapsPayOff(len(data), lv) {
			m.leftBitmaps(data, depth, lhs, maxPos, lv)
			return
		}
	}
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
			if grp := &groups[i]; m.admit(grp, lv, &vals) && !m.boundPrunes(grp, lhs, nil, nil, blockLeft, attr) {
				m.take(depth, grp, true)
			}
		}
		for _, grp := range m.scatter(depth, data, buf) {
			if lv != nil {
				m.narrow(depth, m.wit.colL(attr), graph.Value(grp.Val))
			}
			m.leftGroup(buf[grp.Lo:grp.Hi], depth, lhs.With(attr, graph.Value(grp.Val)), pos)
		}
	}
}

// leftGroup processes one LHS partition: branch into RIGHT, EDGE, and
// deeper LEFT (Algorithm 1, lines 12-14).
func (m *miner) leftGroup(part []int32, depth int, lhs2 gr.Descriptor, pos int) {
	m.enterRight(part, depth+1, lhs2, nil)
	m.edge(part, depth+1, lhs2, nil, len(m.swOrder))
	m.left(part, depth+1, lhs2, pos)
}

// edge is Algorithm 1's EDGE: extend the edge descriptor, then branch into
// RIGHT and deeper EDGE.
func (m *miner) edge(data []int32, depth int, lhs, w gr.Descriptor, maxPos int) {
	if m.opt.MaxW > 0 && len(w) >= m.opt.MaxW {
		return
	}
	var lv *witLevel
	if m.wit != nil {
		lv = m.carried(depth, m.wit.colW(0), m.swOrder[:maxPos])
		if m.useBitmaps() && m.bitmapsPayOff(len(data), lv) {
			m.edgeBitmaps(data, depth, lhs, w, maxPos, lv)
			return
		}
	}
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
			if grp := &groups[i]; m.admit(grp, lv, &vals) && !m.boundPrunes(grp, lhs, w, nil, blockEdge, attr) {
				m.take(depth, grp, true)
			}
		}
		for _, grp := range m.scatter(depth, data, buf) {
			if lv != nil {
				m.narrow(depth, m.wit.colW(attr), graph.Value(grp.Val))
			}
			m.edgeGroup(buf[grp.Lo:grp.Hi], depth, lhs, w.With(attr, graph.Value(grp.Val)), pos)
		}
	}
}

// edgeGroup processes one edge-descriptor partition: branch into RIGHT and
// deeper EDGE (Algorithm 1, lines 20-21).
func (m *miner) edgeGroup(part []int32, depth int, lhs, w2 gr.Descriptor, pos int) {
	m.enterRight(part, depth+1, lhs, w2)
	m.edge(part, depth+1, lhs, w2, pos)
}

// useBitmaps reports whether a scoped descent may run on packed posting
// bitmaps instead of counting sort at all: scoped re-mine only (wit set),
// postings maintained, and not an offer mine — the offer's global-bound
// prune inspects every group, not just witnessed ones. Eligible nodes still
// weigh the two techniques with bitmapsPayOff.
func (m *miner) useBitmaps() bool {
	return m.wit != nil && m.bound == nil && m.st.Postings() != nil
}

// bitmapsPayOff decides, per descent node, whether serving the witnessed
// groups by bitmap intersection beats counting sort. A scoped re-mine only
// needs the groups whose value some witness of the node carries, so ANDing
// the partition's bitmap against each carried value's live-row bitmap costs
// ~words-per-bitmap word ops per carried value (plus packing the partition
// once), where counting sort costs ~|data| per position that has any
// carried value. Nodes with few witnesses carry a handful of values and the
// bitmap walk wins near the root; wide witness sets (or deep, tiny
// partitions) are cheaper to counting-sort, since every AND sweeps the full
// row width no matter how small the partition is.
func (m *miner) bitmapsPayOff(dataLen int, lv *witLevel) bool {
	words := (m.st.NumRows() + 63) / 64
	active := 0
	for p := 1; p < len(lv.offs); p++ {
		if lv.offs[p] > lv.offs[p-1] {
			active++
		}
	}
	vals := len(lv.vals)
	if vals == 0 {
		return false // nothing witnessed here; the counting path skips every position
	}
	return words*vals < active*dataLen
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

// dataBitmap packs data's rows into the depth's scratch bitmap. The caller
// must clear it with clearDataBitmap(depth, data) before returning; only one
// descent per depth is ever live, so per-depth scratch suffices.
func (m *miner) dataBitmap(depth int, data []int32) store.Bitmap {
	if len(data) == 0 {
		panic("core: bitmap descent over an empty partition")
	}
	s := m.scr
	for len(s.dataBMs) <= depth {
		s.dataBMs = append(s.dataBMs, nil)
	}
	// Partitions keep their rows ascending, so setting the last row first
	// sizes the bitmap once instead of regrowing it word by word.
	bm := s.dataBMs[depth].Set(data[len(data)-1])
	for _, row := range data {
		bm = bm.Set(row)
	}
	s.dataBMs[depth] = bm
	return bm
}

func (m *miner) clearDataBitmap(depth int, data []int32) {
	bm := m.scr.dataBMs[depth]
	for _, row := range data {
		bm.Clear(row)
	}
}

// intersect materialises data ∩ live(side bitmap for val) into the depth
// buffer. The and-scratch is consumed into buf before any deeper recursion,
// so a single andBM serves all depths.
func (m *miner) intersect(dataBM, valBM store.Bitmap, buf []int32) []int32 {
	m.scr.andBM = store.AndInto(m.scr.andBM, dataBM, valBM)
	return m.scr.andBM.RowsInto(buf)
}

// leftBitmaps is the bitmap form of left's loop body: iterate only the
// values the node's witnesses carry (lv), ascending — the same group order
// counting sort yields — so the walk emits candidates in the identical
// sequence, and captures and checkpoints stay deterministic. A value absent
// from the partition intersects to the empty set, mirroring the group
// counting sort never forms.
func (m *miner) leftBitmaps(data []int32, depth int, lhs gr.Descriptor, maxPos int, lv *witLevel) {
	dataBM, idx := m.dataBitmap(depth, data), m.bitmapIndex()
	buf := m.buffer(depth, len(data))
	for pos := 0; pos < maxPos; pos++ {
		attr := m.slOrder[pos]
		for _, val := range lv.at(pos) {
			part := m.intersect(dataBM, idx.LBitmap(attr, val), buf)
			if len(part) == 0 {
				continue
			}
			if len(part) < m.opt.MinSupp {
				m.stats.PrunedSupp++
				continue
			}
			m.narrow(depth, m.wit.colL(attr), val)
			m.leftGroup(part, depth, lhs.With(attr, val), pos)
		}
	}
	m.clearDataBitmap(depth, data)
}

// edgeBitmaps is the bitmap form of edge's loop body; see leftBitmaps.
func (m *miner) edgeBitmaps(data []int32, depth int, lhs, w gr.Descriptor, maxPos int, lv *witLevel) {
	dataBM, idx := m.dataBitmap(depth, data), m.bitmapIndex()
	buf := m.buffer(depth, len(data))
	for pos := 0; pos < maxPos; pos++ {
		attr := m.swOrder[pos]
		for _, val := range lv.at(pos) {
			part := m.intersect(dataBM, idx.WBitmap(attr, val), buf)
			if len(part) == 0 {
				continue
			}
			if len(part) < m.opt.MinSupp {
				m.stats.PrunedSupp++
				continue
			}
			m.narrow(depth, m.wit.colW(attr), val)
			m.edgeGroup(part, depth, lhs, w.With(attr, val), pos)
		}
	}
	m.clearDataBitmap(depth, data)
}

// rightBitmaps is the bitmap form of right's loop body; see leftBitmaps.
// Never entered below a node whose witnesses hold a deleted edge — that
// node's R extensions must examine every RHS group, which is exactly the
// counting-sort walk.
func (m *miner) rightBitmaps(rc *rctx, data []int32, depth int, rhs gr.Descriptor, maxPos int, lv *witLevel) {
	dataBM, idx := m.dataBitmap(depth, data), m.bitmapIndex()
	if len(rhs) == 0 {
		// A bitmap root counts no histogram: it intersects for each
		// homophily effect instead, one AND-count per homophily attribute
		// of l at a position some witness carries a value at. No RHS below
		// takes a value at any other position (witness sets only narrow).
		for pos := 0; pos < maxPos; pos++ {
			attr := rc.sr[pos]
			if lval, ok := rc.lhs.Get(attr); ok && m.schema.Node[attr].Homophily && len(lv.at(pos)) > 0 {
				rc.recordHom(attr, store.AndCount(dataBM, idx.RBitmap(attr, lval)))
			}
		}
	}
	buf := m.buffer(depth, len(data))
	for pos := 0; pos < maxPos; pos++ {
		attr := rc.sr[pos]
		for _, val := range lv.at(pos) {
			part := m.intersect(dataBM, idx.RBitmap(attr, val), buf)
			if len(part) == 0 {
				continue
			}
			if len(part) < m.opt.MinSupp {
				m.stats.PrunedSupp++
				continue
			}
			m.narrow(depth, m.wit.colR(attr), val)
			m.rightGroup(rc, part, len(part), depth, rhs.With(attr, val), pos)
		}
	}
	m.clearDataBitmap(depth, data)
}

// rctx is the context of one RHS-expansion subtree: the base partition
// E(l ∧ w) it hangs off, the fixed l and w, the dynamic RHS order for this
// l, and the homophily-effect supports (Section IV-D: every
// supp(l -w-> l[β]) a descendant needs is countable from base).
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
// offsOK is set: the root gathers each key column and every β scan reads
// destination values through them.
type rctx struct {
	base    []int32
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
		rc.offs, rc.offsOK = m.st.ROffsetsInto(rc.offs, rc.base), true
	}
	return rc.offs
}

// enterRight opens an RHS-expansion subtree below the node for (lhs, w).
// The context and its dynamic order live in the scratch: RIGHT only ever
// extends the RHS, so at most one subtree is live at a time.
func (m *miner) enterRight(base []int32, depth int, lhs, w gr.Descriptor) {
	rc := &m.scr.rc
	rc.base, rc.lhs, rc.w = base, lhs, w
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
// (rhs empty, data the base partition) gathers its key columns through the
// base's destination offsets, and its histogram of a homophily attribute
// the LHS constrains is that attribute's single-attribute homophily effect.
func (m *miner) right(rc *rctx, data []int32, depth int, rhs gr.Descriptor, maxPos int) {
	if !m.rightExtends(len(rhs), maxPos) {
		return
	}
	// lv stays nil (no value filter) in the static mine and below a node
	// whose witnesses still hold a deleted edge; a scoped walk narrows the
	// set at every descent either way.
	var lv *witLevel
	if m.wit != nil && !m.wit.hasDelete(m.witLevel(depth-1).set) {
		lv = m.carried(depth, m.wit.colR(0), rc.sr[:maxPos])
		if m.useBitmaps() && m.bitmapsPayOff(len(data), lv) {
			m.rightBitmaps(rc, data, depth, rhs, maxPos, lv)
			return
		}
	}
	buf := m.buffer(depth, len(data))
	// A child's RHS is rhs ∧ (attr : v). It is trivial when rhs is (or is
	// empty) and v repeats the LHS value of a homophily attr; its β is
	// rhs's plus attr when v differs from that LHS value.
	rhsTrivial := len(rhs) == 0 || gr.GR{L: rc.lhs, R: rhs}.Trivial(m.schema)
	rhsMask := m.betaMask(rc.lhs, rhs)
	for pos := 0; pos < maxPos; pos++ {
		attr := rc.sr[pos]
		var vals []graph.Value
		if lv != nil {
			if vals = lv.at(pos); len(vals) == 0 {
				continue // no witness carries a value ⇒ no entrant below any group
			}
		}
		// homL: attr is a homophily attribute the LHS constrains to lval.
		lval, homL := rc.lhs.Get(attr)
		homL = homL && m.schema.Node[attr].Homophily
		// A subtree root reads its base's destination values at every
		// position, so it reads them through offsets gathered once. The
		// walk's own root, over the whole live edge list, reads the RArray
		// pointers in row order already: offsets would save it little and
		// cost an |E|-sized buffer per mine.
		keys := m.scr.keys
		if len(rhs) == 0 && len(data) < m.totalE {
			keys = m.st.RValsAtInto(keys, m.destOffsets(rc), attr)
		} else {
			keys = m.st.RValsInto(keys, data, attr)
		}
		groups := m.count(depth, keys)
		if len(rhs) == 0 && homL {
			rc.recordHomGroup(attr, lval, groups)
		}
		for i := range groups {
			grp := &groups[i]
			if !m.admit(grp, lv, &vals) || m.boundPrunes(grp, rc.lhs, rc.w, rhs, blockRight, attr) {
				continue
			}
			v := graph.Value(grp.Val)
			trivial, mask := rhsTrivial && homL && lval == v, rhsMask
			if homL && lval != v {
				mask |= 1 << uint(attr)
			}
			m.take(depth, grp, m.rightRows(rc, int(grp.N), len(rhs)+1, pos, trivial, mask))
		}
		for _, grp := range m.scatter(depth, data, buf) {
			if m.wit != nil {
				m.narrow(depth, m.wit.colR(attr), graph.Value(grp.Val))
			}
			m.rightGroup(rc, buf[grp.Lo:grp.Hi], int(grp.N), depth, rhs.With(attr, graph.Value(grp.Val)), pos)
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
	c := metrics.Counts{LWR: n, LW: len(rc.base), E: m.totalE}
	if m.metric.NeedsHom && mask != 0 {
		c.Hom = m.homEffect(rc, mask)
	}
	return c
}

// rightGroup scores one RHS partition of n rows and recurses (the body of
// Algorithm 1, lines 25-29). part holds the rows only when the walk needs
// them (rightRows); it is empty otherwise.
func (m *miner) rightGroup(rc *rctx, part []int32, n, depth int, rhs2 gr.Descriptor, pos int) {
	g := gr.GR{L: rc.lhs, W: rc.w, R: rhs2}

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
		m.descend(rc, part, n, depth, rhs2, pos)
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
	m.descend(rc, part, n, depth, rhs2, pos)
}

// descend runs RIGHT below an RHS partition of n rows. It panics when the
// walk would recurse into a partition whose rows were never moved: a plan
// rule (rightRows) that skipped the rows of a group rightGroup does not cut
// would otherwise mine an empty partition and silently lose its subtree.
func (m *miner) descend(rc *rctx, part []int32, n, depth int, rhs2 gr.Descriptor, pos int) {
	if !m.rightExtends(len(rhs2), pos) {
		return
	}
	if len(part) != n {
		panic("core: RIGHT recursion into unscattered rows")
	}
	m.right(rc, part, depth+1, rhs2, pos)
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
	idx := m.bitmapIndex()
	m.scr.counter.intersectLW(idx, g)
	return m.scr.counter.count(idx, m.schema, m.metric, g)
}

// bitmapIndex returns the run's bitmap index: the one set on the scratch
// (a fanned-out mine's shared index), else the store's maintained postings
// when it keeps them, else a lazy index created on first use.
func (m *miner) bitmapIndex() *store.BitmapIndex {
	if m.scr.genIdx == nil {
		if m.scr.genIdx = m.st.Postings(); m.scr.genIdx == nil {
			m.scr.genIdx = store.NewBitmapIndex(m.st)
		}
	}
	return m.scr.genIdx
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
// kernel over the mine's lazy index and memoised per interned RHS id in a
// dense table (stored as count+1; 0 means unseen).
func (m *miner) rCount(g gr.GR) int {
	scr := m.scr
	rid := m.dict.NodeDesc(g.R)
	if int(rid) < len(scr.rCounts) {
		if v := scr.rCounts[rid]; v != 0 {
			return int(v) - 1
		}
	}
	count := scr.counter.countR(m.bitmapIndex(), g.R)
	if n := m.dict.NumDescs(); len(scr.rCounts) < n {
		scr.rCounts = append(scr.rCounts, make([]int32, n-len(scr.rCounts))...)
	}
	scr.rCounts[rid] = int32(count) + 1
	scr.rTouched = append(scr.rTouched, rid)
	return count
}
