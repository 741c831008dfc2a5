package core

import (
	"fmt"
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
	// per-(attribute, value) live-row bitmaps from an index each miner fills
	// lazily and drops when the mine returns: one pass over the rows and
	// ⌈rows/64⌉ words per distinct condition probed (114 bitmaps, 855 KB,
	// on a 60k-edge Pokec-like mine). Off by default to match the paper's
	// GRMiner(k).
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
	// Parallelism > 1 mines first-level partitions on that many worker
	// goroutines, drained largest-partition-first from a lock-free task
	// queue; workers keep private top-k lists and share only an atomic
	// pruning floor (see parallel.go for the engine and soundness
	// argument). Results are deterministic and equal to the sequential
	// run's: with a static floor the workers collect candidates that a
	// final generality-ordered merge filters exactly; with DynamicFloor,
	// ExactGenerality is enabled automatically so blocking is
	// order-independent and the shared floor stays sound (for patterns up
	// to 20 conditions — see hasQualifyingGeneralization's fallback; cap
	// MaxL/MaxW to stay inside it on extremely wide schemas). 0 and 1 mean
	// sequential. The facade's EngineConfig.Auto fills this from the input
	// size through Plan.Apply (plan.go). It drives the static mine only:
	// the incremental engines' capture walks always fan out over
	// GOMAXPROCS workers (fanout.go), whose output does not depend on the
	// width.
	Parallelism int
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
	if o.Parallelism < 0 {
		return o, fmt.Errorf("core: negative Parallelism %d", o.Parallelism)
	}
	if o.PoolCap < 0 {
		return o, fmt.Errorf("core: negative PoolCap %d", o.PoolCap)
	}
	if o.PoolCap > 0 && o.K == 0 {
		return o, fmt.Errorf("core: PoolCap requires K > 0 (an unbounded result can never be proven independent of spilled pool entries)")
	}
	if o.Parallelism > 1 && o.DynamicFloor && !o.NoGeneralityFilter {
		// Parallel dynamic-floor pruning needs order-independent blocking
		// to stay sound and deterministic; see parallel.go.
		o.ExactGenerality = true
	}
	return o, nil
}

// Stats reports the work a run performed.
//
// grlint:wire v2
type Stats struct {
	// PartitionCalls counts counting-sort invocations.
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
func MineStore(st *store.Store, opt Options) (*Result, error) {
	opt, err := opt.normalize()
	if err != nil {
		return nil, err
	}
	if n := len(st.Graph().Schema().Node); n > 64 {
		// betaMask packs node-attribute indices into a uint64.
		return nil, fmt.Errorf("core: %d node attributes exceed the supported maximum of 64", n)
	}
	if opt.Parallelism > 1 {
		return mineParallel(st, opt)
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
	// and bitmap descents: the store's postings when it keeps them, else a
	// lazy index built on the run's first count. reset drops it (the store
	// may mutate between runs); counter is the count kernel's scratch.
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
	// keys is the key column partition gathers into. One serves every
	// depth: a column is dead once its partition call returns, before any
	// recursion. The incremental engine keeps its scratch for its lifetime,
	// so per-depth columns would stay on its live heap.
	keys []uint16
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
	// index. Parallel workers each own one, like the sequential miner.
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

	// Parallel-worker state (nil in sequential mode): candidates live in
	// the worker's private top list (DynamicFloor) or collected slice
	// (static floor) and are merged once after all workers finish; the only
	// shared mutable state is the atomic pruning floor. See parallel.go.
	parF      *parFloor
	collected []gr.Scored
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
	if cap(s.buffers[depth]) < n {
		s.buffers[depth] = make([]int32, n)
	}
	return s.buffers[depth][:n]
}

// partition gathers data's key column for attr with one of the store's
// batch gathers, counting-sorts data by it into out, and snapshots the group
// list into a depth-scoped buffer: the Partitioner reuses its internal group
// slice, so recursive Partition calls would otherwise clobber the groups a
// caller is still iterating. Only groups of at least MinSupp rows with a
// non-null value are scattered into out; every caller prunes the others
// before reading a group's rows.
func (m *miner) partition(depth int, data []int32, gather func(dst []uint16, rows []int32, attr int) []uint16, attr int, out []int32) []csort.Group {
	m.stats.PartitionCalls++
	s := m.scr
	s.keys = gather(s.keys, data, attr)
	groups := m.part.Partition(data, s.keys, m.opt.MinSupp, uint16(graph.Null), out)
	for len(s.groupBufs) <= depth {
		s.groupBufs = append(s.groupBufs, nil)
	}
	s.groupBufs[depth] = append(s.groupBufs[depth][:0], groups...)
	return s.groupBufs[depth]
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
		groups := m.partition(depth, data, m.st.LValsInto, attr, buf)
		for _, grp := range groups {
			if grp.Val == uint16(graph.Null) {
				continue // null never forms a descriptor
			}
			if int(grp.N) < m.opt.MinSupp {
				m.stats.PrunedSupp++
				continue
			}
			part := buf[grp.Lo:grp.Hi]
			if lv != nil {
				var ok bool
				if vals, ok = seek(vals, graph.Value(grp.Val)); !ok {
					continue
				}
				m.narrow(depth, m.wit.colL(attr), graph.Value(grp.Val))
			}
			lhs2 := lhs.With(attr, graph.Value(grp.Val))
			if m.bound != nil && m.bound.prune(len(part), lhs2, nil, nil) {
				m.stats.PrunedGlobal++
				continue
			}
			m.leftGroup(part, depth, lhs2, pos)
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
		groups := m.partition(depth, data, m.st.EValsInto, attr, buf)
		for _, grp := range groups {
			if grp.Val == uint16(graph.Null) {
				continue
			}
			if int(grp.N) < m.opt.MinSupp {
				m.stats.PrunedSupp++
				continue
			}
			part := buf[grp.Lo:grp.Hi]
			if lv != nil {
				var ok bool
				if vals, ok = seek(vals, graph.Value(grp.Val)); !ok {
					continue
				}
				m.narrow(depth, m.wit.colW(attr), graph.Value(grp.Val))
			}
			w2 := w.With(attr, graph.Value(grp.Val))
			if m.bound != nil && m.bound.prune(len(part), lhs, w2, nil) {
				m.stats.PrunedGlobal++
				continue
			}
			m.edgeGroup(part, depth, lhs, w2, pos)
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
			m.rightGroup(rc, part, depth, rhs.With(attr, val), pos)
		}
	}
	m.clearDataBitmap(depth, data)
}

// rctx is the context of one RHS-expansion subtree: the base partition
// E(l ∧ w) it hangs off, the fixed l and w, the dynamic RHS order for this
// l, and the memoised homophily-effect supports (Section IV-D: every
// supp(l -w-> l[β]) a descendant needs is countable from base). The memo is
// a parallel key/value pair of slices scanned linearly — a subtree sees at
// most 2^|Hom| distinct β masks, and in practice a handful.
type rctx struct {
	base    []int32
	lhs, w  gr.Descriptor
	sr      []int
	homKeys []uint64
	homVals []int
}

// enterRight opens an RHS-expansion subtree below the node for (lhs, w).
// The context and its dynamic order live in the scratch: RIGHT only ever
// extends the RHS, so at most one subtree is live at a time.
func (m *miner) enterRight(base []int32, depth int, lhs, w gr.Descriptor) {
	rc := &m.scr.rc
	rc.base, rc.lhs, rc.w = base, lhs, w
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
func (m *miner) right(rc *rctx, data []int32, depth int, rhs gr.Descriptor, maxPos int) {
	if m.opt.MaxR > 0 && len(rhs) >= m.opt.MaxR {
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
	for pos := 0; pos < maxPos; pos++ {
		attr := rc.sr[pos]
		var vals []graph.Value
		if lv != nil {
			if vals = lv.at(pos); len(vals) == 0 {
				continue // no witness carries a value ⇒ no entrant below any group
			}
		}
		groups := m.partition(depth, data, m.st.RValsInto, attr, buf)
		for _, grp := range groups {
			if grp.Val == uint16(graph.Null) {
				continue
			}
			if int(grp.N) < m.opt.MinSupp {
				m.stats.PrunedSupp++
				continue
			}
			part := buf[grp.Lo:grp.Hi]
			if lv != nil {
				var ok bool
				if vals, ok = seek(vals, graph.Value(grp.Val)); !ok {
					continue
				}
			}
			if m.wit != nil {
				m.narrow(depth, m.wit.colR(attr), graph.Value(grp.Val))
			}
			rhs2 := rhs.With(attr, graph.Value(grp.Val))
			if m.bound != nil && m.bound.prune(len(part), rc.lhs, rc.w, rhs2) {
				m.stats.PrunedGlobal++
				continue
			}
			m.rightGroup(rc, part, depth, rhs2, pos)
		}
	}
}

// rightGroup scores one RHS partition and recurses (the body of Algorithm
// 1, lines 25-29).
func (m *miner) rightGroup(rc *rctx, part []int32, depth int, rhs2 gr.Descriptor, pos int) {
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
			c := metrics.Counts{LWR: len(part), LW: len(rc.base), E: m.totalE}
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
		m.right(rc, part, depth+1, rhs2, pos)
		return
	}

	c := metrics.Counts{LWR: len(part), LW: len(rc.base), E: m.totalE}
	var mask uint64
	if m.metric.NeedsHom {
		if mask = m.betaMask(rc.lhs, rhs2); mask != 0 {
			c.Hom = m.homEffect(rc, mask)
		}
	}
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
	prunable := m.metric.RHSAntiMonotone
	if m.opt.StaticRHSOrder && m.metric.NeedsHom && mask == 0 {
		// Ablation mode: without the dynamic ordering, a homophily value
		// conflicting with the LHS may still be appended below this node,
		// flipping β to non-empty and possibly raising nhp (Remark 2) —
		// the pruning Theorem 3 licenses is unavailable here.
		prunable = false
	}
	if prunable && score < m.floor() {
		// Theorem 3: every RHS extension of this non-trivial GR scores no
		// higher; cut the subtree.
		m.stats.PrunedScore++
		return
	}
	m.right(rc, part, depth+1, rhs2, pos)
}

// floor returns the effective pruning threshold: the user's MinScore,
// upgraded to the k-th best score under GRMiner(k) semantics. Parallel
// workers read the shared atomic floor — a single lock-free load — which
// only ever rises and never exceeds the final k-th best score, so pruning
// with it is sound.
func (m *miner) floor() float64 {
	f := m.opt.MinScore
	if m.opt.DynamicFloor {
		if m.parF != nil {
			if fl := m.parF.load(); fl > f {
				f = fl
			}
		} else if fl, ok := m.top.Floor(); ok && fl > f {
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
// the top-k list and records it as a future blocker.
//
// Parallel workers instead keep candidates private. With a static floor
// they collect into a local slice and the generality filter runs in the
// coordinator's final generality-ordered merge, rankCandidates (the
// collected set is complete, so the merge is exact). Under DynamicFloor the normalized
// options force ExactGenerality, making the blocking decision
// order-independent so it happens right here; survivors enter the worker's
// private top-k list, and whenever that list's own floor rises the worker
// tries to CAS-raise the shared atomic floor with it.
func (m *miner) consider(s gr.Scored) {
	if m.parF != nil {
		if !m.opt.NoGeneralityFilter && m.opt.ExactGenerality {
			// The worker-local blocker map is a sound pre-filter before the
			// exact (and expensive) generalisation scan: a recorded blocker
			// is itself a qualifying generalisation, so a hit proves the
			// verdict the scan would reach. Misses fall through to the scan
			// because another worker may have enumerated the blocker.
			if m.scr.blockers.blocks(s.GR) || m.hasQualifyingGeneralization(s.GR) {
				m.stats.Blocked++
				return
			}
			m.scr.blockers.record(s.GR)
		}
		if m.opt.DynamicFloor {
			if m.top.Consider(s) {
				if fl, ok := m.top.Floor(); ok {
					m.parF.raise(fl)
				}
			}
		} else {
			m.collected = append(m.collected, s)
		}
		return
	}
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
	if n == 0 || n > 20 {
		// No strict generalisation exists, or the enumeration would explode;
		// fall back to the in-search blocker set. In parallel mode that set
		// is worker-local, so for GRs beyond 20 conditions the sequential-
		// equality guarantee narrows to runs whose descriptor caps (MaxL +
		// MaxW ≤ 20 — the planner's caps are far below this) keep patterns
		// inside the exact check's reach; such runs are otherwise
		// pathological (2^20 subset counts per candidate).
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

// bitmapIndex returns the run's bitmap index: the store's maintained
// postings when it keeps them, else a lazy index created on first use.
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

// homEffect returns supp(l -w-> l[β]) for the β encoded by mask, counting
// within the subtree's base partition E(l ∧ w) and memoising per β. This
// realises Section IV-D: case 1 (β ⊂ R) and case 2 (β = R) collapse into a
// single bounded scan because base is exactly the partition whose earlier
// enumeration the paper's Property 2 relies on.
func (m *miner) homEffect(rc *rctx, mask uint64) int {
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
	for _, e := range rc.base {
		match := true
		for i, a := range attrs {
			if m.st.RVal(e, a) != want[i] {
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
