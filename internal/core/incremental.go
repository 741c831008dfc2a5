// Fully dynamic top-k GR mining: edge insertions AND deletions in mixed
// batches, over a bounded tracked pool.
//
// The batch miner re-enumerates the whole SFDF tree on every change; this
// file maintains the same result while ingesting edge batches. The engine
// rests on three pieces:
//
//  1. A fully dynamic store: insertions are appended to the graph and synced
//     into the compact model with store.Append (EArray tail segment, new
//     LArray/RArray rows as nodes activate); deletions tombstone their rows
//     (store.RemoveEdges), which keeps the removed values readable for the
//     delta recount and folds into a compaction once the dead fraction
//     crosses the store's threshold. Per-(attribute, value) live-row
//     bitmaps maintained by the store (its postings) hand the scoped
//     re-mine its first-level partitions directly, replacing the
//     O(|E| × dims) per-batch partition pass that used to floor every batch.
//
//  2. A tracked candidate pool — the "guarded frontier": the exact counts
//     (LWR, LW, Hom, R, E) of every GR currently satisfying Definition 5
//     condition (1). The pool is a superset of the top-k (it also holds
//     generality-blocked candidates, which batches can unblock when their
//     blocker decays below the thresholds), so conditions (2) and (3) can
//     be re-applied exactly after every batch by rankCandidates, the
//     most-general-first merge every engine ends in. Under
//     Options.PoolCap the pool is bounded; see trimPool for the exactness
//     argument (score-ordered spill + re-mine-on-underflow).
//
//  3. A scoped re-mine covering every possible pool *entrant*, scoped by
//     per-edge witnesses:
//
//     Insertions can promote GRs the pool has never seen (support crossing
//     minSupp, or score rising past minScore). For DeltaSafe metrics a
//     score can only rise when an inserted edge matches the GR's full
//     descriptor l ∧ w ∧ r (see metrics.Metric). Deletions never raise
//     support, so a deletion-entrant must be a score riser, and for
//     DeleteSafe metrics (score a pure function of LWR, LW, Hom) a score
//     rises only when a deleted edge matched the GR's l ∧ w without
//     matching r — shrinking the denominator. Either way ONE batch edge,
//     the entrant's witness, carries the entrant's descriptor (all of it
//     for an insertion, l ∧ w for a deletion). Every node of the SFDF path
//     to the entrant has a descriptor contained in the entrant's, so the
//     witness matches every node on the path. The scoped walk therefore
//     carries, at each node, the set of batch edges still matching it —
//     an inserted edge while it matches l ∧ w ∧ r, a deleted edge while it
//     matches l ∧ w (R extensions pass it unchanged) — and prunes every
//     descent whose set empties: no entrant lies below it. First-level
//     subtrees no batch edge reaches are skipped outright. The root RIGHT
//     block is the one place every deleted edge reaches (its GRs have an
//     empty l ∧ w, which every edge matches); there a score bound drops
//     the deleted witnesses of subtrees that provably hold no candidate
//     (rightSubtreeAffected). Filtering by witnesses, not by the union of
//     the batch's values per attribute, is what keeps the walk small: a
//     few dozen edges mark nearly every value of a small domain, but few
//     of them match any one deep descriptor.
//
//     This is the same candidate-union soundness argument the parallel
//     engine makes for its task decomposition (parallel.go), applied to the
//     subset of tasks the batch touches. Metrics that are not DeltaSafe
//     (the lift family, whose scores can rise when |E| grows) rebuild the
//     pool every batch; metrics that are DeltaSafe but not DeleteSafe
//     (gain, which reads E) rebuild only for batches containing deletions.
//
// Floors are decrement-safe by construction: nothing about condition (3) is
// persisted across batches. Every ApplyBatch re-derives the k-th best score
// from the surviving pool in assemble — a deletion that demotes or evicts a
// current top-k member simply yields a lower merged floor next batch,
// whereas a CAS-raised floor carried across batches (the parallel engine's
// in-run device) would wrongly keep pruning at the stale, higher value.
//
// Exactness: after every ApplyBatch, the returned top-k equals a fresh batch
// mine of the surviving graph under the engine's effective options. Like
// the parallel engine, a dynamic floor forces ExactGenerality so condition
// (2) is order-independent; the oracle tests in incremental_test.go and
// dynamic_test.go assert the equivalence after every batch, for every
// metric, in both floor modes.
package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/intern"
	"grminer/internal/metrics"
	"grminer/internal/store"
)

// EdgeInsert is one edge to ingest: endpoints plus edge attribute values
// (one per schema edge attribute, in order).
//
// grlint:wire v1
type EdgeInsert struct {
	Src, Dst int
	Vals     []graph.Value
}

// EdgeDelete is one edge retraction: it removes one live edge matching the
// endpoints and edge attribute values exactly (a multigraph can hold several
// such edges; one unspecified instance is removed). Deletions resolve
// against the graph as it stood BEFORE the batch — a batch cannot delete an
// edge it also inserts — and a retraction matching no pre-batch live edge
// rejects the whole batch.
//
// grlint:wire v2
type EdgeDelete struct {
	Src, Dst int
	Vals     []graph.Value
}

// Batch is one mixed change set for ApplyBatch. Because deletions resolve
// against the pre-batch graph, the two slices commute and carry no internal
// order.
type Batch struct {
	Ins []EdgeInsert
	Del []EdgeDelete
}

// IncStats describes the work one ApplyBatch performed (Cumulative sums
// them over the engine's lifetime).
type IncStats struct {
	// Batches is 1 for a single ApplyBatch; cumulative totals sum it.
	Batches int
	// Edges is the number of edges inserted.
	Edges int
	// Deleted is the number of edges retracted.
	Deleted int
	// Tracked is the pool size after the batch.
	Tracked int
	// Recounted is the number of pool entries whose counts were
	// delta-updated against the batch.
	Recounted int
	// Dropped counts pool entries whose score decayed below minScore.
	Dropped int
	// SubtreesRemined / SubtreesTotal report the scoped re-mine's
	// selectivity over first-level SFDF subtrees (equal on a full rebuild).
	SubtreesRemined int
	SubtreesTotal   int
	// FullRemines counts batches that rebuilt the pool from scratch
	// (non-DeltaSafe metric, negative minScore, or a deletion under a
	// metric that is not DeleteSafe).
	FullRemines int
	// Spilled counts pool entries spilled past Options.PoolCap;
	// UnderflowRemines counts batches whose bounded pool could not prove
	// the top-k independent of the spilled frontier and re-mined the
	// complete pool before answering.
	Spilled          int
	UnderflowRemines int
	// Duration is the wall-clock ApplyBatch time.
	Duration time.Duration
}

// add accumulates b into s.
func (s *IncStats) add(b IncStats) {
	s.Batches += b.Batches
	s.Edges += b.Edges
	s.Deleted += b.Deleted
	s.Tracked = b.Tracked
	s.Recounted += b.Recounted
	s.Dropped += b.Dropped
	s.SubtreesRemined += b.SubtreesRemined
	s.SubtreesTotal += b.SubtreesTotal
	s.FullRemines += b.FullRemines
	s.Spilled += b.Spilled
	s.UnderflowRemines += b.UnderflowRemines
	s.Duration += b.Duration
}

// Incremental maintains the top-k GRs of a growing network. It owns the
// graph passed to NewIncremental (edges are appended to it) and is not safe
// for concurrent use.
type Incremental struct {
	g   *graph.Graph
	st  *store.Store
	opt Options
	// deltaSafe gates the scoped path for insertions; deleteSafe
	// additionally gates it for batches containing deletions. See
	// metrics.Metric.DeltaSafe / DeleteSafe.
	deltaSafe  bool
	deleteSafe bool
	// pool is keyed by the store's persistent interning dictionary (ids
	// stable across batches and compactions); pool, scr, fan, wit, and
	// mergeScratch are the engine's steady-state allocation set — every
	// ApplyBatch recounts, re-mines, and assembles out of these instead of
	// rebuilding maps (DESIGN.md §7). The engine is the store's exclusive
	// writer, so single-owner use holds. scr has a private dictionary: it
	// is the fan-out's worker 0, and workers never intern into the store's.
	pool         densePool
	scr          *minerScratch
	fan          *fanOut
	wit          witnesses
	mergeScratch []gr.Scored
	// spillFloor is the highest score ever spilled past Options.PoolCap
	// since the pool was last complete (-Inf when nothing is spilled);
	// spilled records whether the frontier is non-empty. Together they are
	// the bounded pool's proof obligation: a merged top-k whose k-th score
	// beats spillFloor is provably unaffected by every spilled entry.
	spillFloor float64
	spilled    bool
	last       *Result
	cum        IncStats
}

// NewIncremental builds the compact store for g, runs one full mine to seed
// the tracked pool, and returns the engine. Options follow MineStore, with
// the parallel engine's normalization: a dynamic floor forces
// ExactGenerality so the maintained result is order-independent (the
// batch-equivalent reference is a fresh mine under Options()).
func NewIncremental(g *graph.Graph, opt Options) (*Incremental, error) {
	return newIncremental(g, opt, runtime.GOMAXPROCS(0))
}

// newIncremental is NewIncremental with the capture walks' fan-out width.
func newIncremental(g *graph.Graph, opt Options, width int) (*Incremental, error) {
	opt, err := opt.normalize()
	if err != nil {
		return nil, err
	}
	if n := len(g.Schema().Node); n > 64 {
		return nil, fmt.Errorf("core: %d node attributes exceed the supported maximum of 64", n)
	}
	if opt.DynamicFloor && !opt.NoGeneralityFilter {
		// Mirror the parallel engine: order-independent blocking is what
		// makes "maintained result ≡ fresh mine" well-defined under a
		// dynamic floor (see Options.ExactGenerality).
		opt.ExactGenerality = true
	}
	st := store.Build(g)
	st.EnablePostings()
	inc := &Incremental{
		g:   g,
		st:  st,
		opt: opt,
		deltaSafe: opt.Metric.DeltaSafe && !opt.Metric.NeedsR &&
			opt.MinScore >= 0,
		deleteSafe: opt.Metric.DeleteSafe,
		// The single store captures every condition-(1) candidate: the
		// pool's gate is the engine's own (MinSupp, MinScore).
		pool:       newDensePool(st, captureOptions(opt)),
		spillFloor: math.Inf(-1),
	}
	inc.scr = privateScratch(st)
	inc.fan = newFanOut(st, inc.pool.opt, inc.scr, width)
	var stats Stats
	var seedStats IncStats
	start := time.Now()
	inc.rebuildPool(&stats)
	inc.last = inc.assembleBounded(&stats, &seedStats, start)
	inc.cum.Spilled += seedStats.Spilled
	inc.cum.Tracked = inc.pool.len()
	return inc, nil
}

// Options returns the engine's effective (normalized) options — the options
// a batch mine must use to reproduce the maintained result.
func (inc *Incremental) Options() Options { return inc.opt }

// Result returns the current top-k (the result of the last ApplyBatch, or the
// seed mine). The returned value is shared; callers must not mutate it.
func (inc *Incremental) Result() *Result { return inc.last }

// Cumulative returns lifetime totals across all ApplyBatch calls.
func (inc *Incremental) Cumulative() IncStats { return inc.cum }

// Explain returns the exact maintained counts of q from the tracked
// candidate pool, or false when q is not tracked (below the support
// threshold, spilled under PoolCap, or never a condition-(1) candidate) —
// callers then fall back to a full scan of the graph. Counts.Hom and
// Counts.R are only tracked when the engine's metric reads them (NeedsHom,
// NeedsR); otherwise they are 0. Explain only reads the pool and its
// dictionary (Dict.Lookup interns nothing), but the pool is ApplyBatch's
// to mutate, so it must not run concurrently with ApplyBatch.
func (inc *Incremental) Explain(q gr.GR) (metrics.Counts, bool) {
	if _, t := inc.pool.lookup(q); t != nil {
		return t.c, true
	}
	return metrics.Counts{}, false
}

// ApplyBatch ingests one mixed batch of insertions and deletions and returns
// the updated top-k. The whole batch is validated before any state changes:
// a malformed insert, or a retraction matching no pre-batch live edge,
// rejects the batch with an error and leaves the engine (and the owned
// graph) untouched. Deletions resolve against the pre-batch edge set, so the
// two slices commute.
func (inc *Incremental) ApplyBatch(b Batch) (*Result, IncStats, error) {
	start := time.Now()
	for i, e := range b.Ins {
		if err := inc.g.CheckEdge(e.Src, e.Dst, e.Vals...); err != nil {
			return nil, IncStats{}, fmt.Errorf("core: batch edge %d: %w", i, err)
		}
	}
	delRows, err := resolveDeletes(inc.st, b.Del)
	if err != nil {
		return nil, IncStats{}, err
	}
	for _, e := range b.Ins {
		if _, err := inc.g.AddEdge(e.Src, e.Dst, e.Vals...); err != nil {
			// Unreachable after CheckEdge; kept as an invariant guard.
			return nil, IncStats{}, err
		}
	}
	newIDs := inc.st.Append()

	bs := IncStats{Batches: 1, Edges: len(b.Ins), Deleted: len(delRows)}
	var stats Stats
	scoped := inc.deltaSafe && (len(delRows) == 0 || inc.deleteSafe)
	if scoped {
		// Order matters: the recount and the witness collection read
		// the doomed rows' values, so both run before the rows tombstone;
		// the re-mine then runs over the surviving store (RemoveEdges may
		// compact and renumber rows — newIDs and delRows are dead after it).
		bs.Recounted, bs.Dropped = inc.pool.recount(newIDs, delRows, nil)
		collectWitnessesInto(&inc.wit, inc.st, newIDs, delRows)
		if err := inc.applyDeletes(delRows); err != nil {
			return nil, IncStats{}, err
		}
		bs.SubtreesRemined, bs.SubtreesTotal = remineAffectedSubtrees(inc.fan, &inc.pool, &inc.wit, inc.pool.capture, nil, &stats)
	} else if len(newIDs) > 0 || len(delRows) > 0 {
		// Full rebuild: the whole tree is re-walked, so no subtree
		// selectivity is reported (SubtreesRemined/Total stay 0). The
		// rebuild recovers a complete pool, so the spilled frontier (if
		// any) is subsumed and its floor resets.
		if err := inc.applyDeletes(delRows); err != nil {
			return nil, IncStats{}, err
		}
		inc.rebuildPool(&stats)
		bs.FullRemines = 1
	}
	inc.last = inc.assembleBounded(&stats, &bs, start)
	bs.Tracked = inc.pool.len()
	bs.Duration = inc.last.Stats.Duration
	inc.cum.add(bs)
	return inc.last, bs, nil
}

// resolveDeletes maps each retraction to a distinct live store row matching
// its endpoints and edge values exactly, by one pass over the live rows. An
// unmatched retraction is an error (the caller rejects the batch unmutated).
func resolveDeletes(st *store.Store, dels []EdgeDelete) ([]int32, error) {
	ne := len(st.Graph().Schema().Edge)
	ids, err := resolveRetractions(dels, ne, st.NumRows(), func(e int) (int, int, bool) {
		if !st.Alive(int32(e)) {
			return 0, 0, false
		}
		return int(st.SrcNode(int32(e))), int(st.DstNode(int32(e))), true
	}, func(e, a int) graph.Value {
		return st.EVal(int32(e), a)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]int32, len(ids))
	for i, id := range ids {
		rows[i] = int32(id)
	}
	return rows, nil
}

// resolveRetractions is the shared retraction-resolution loop of the
// single-store engine (over EArray rows), the sharded coordinator, and the
// shard workers (over graph edges): match each EdgeDelete to a distinct
// live edge with identical endpoints and edge values, deterministically
// claiming candidates in id order (a multigraph may hold several; the
// lowest-id unclaimed instance goes). The scan pre-filters by an endpoint
// hash so the common case — a huge edge set, a handful of retractions —
// touches two ints per row, not a per-row formatted key. An unmatched
// retraction is an error; callers reject the whole batch unmutated.
func resolveRetractions(dels []EdgeDelete, ne, numRows int, endpoints func(e int) (src, dst int, alive bool), val func(e, a int) graph.Value) ([]int, error) {
	if len(dels) == 0 {
		return nil, nil
	}
	pack := func(src, dst int) uint64 {
		return uint64(uint32(src))<<32 | uint64(uint32(dst))
	}
	pending := make(map[uint64][]int, len(dels))
	for i, d := range dels {
		if len(d.Vals) != ne {
			return nil, fmt.Errorf("core: batch retraction %d: %d values for %d edge attributes", i, len(d.Vals), ne)
		}
		pending[pack(d.Src, d.Dst)] = append(pending[pack(d.Src, d.Dst)], i)
	}
	ids := make([]int, len(dels))
	matched := 0
	for e := 0; e < numRows && matched < len(dels); e++ {
		src, dst, alive := endpoints(e)
		if !alive {
			continue
		}
		key := pack(src, dst)
		idxs := pending[key]
		if len(idxs) == 0 {
			continue
		}
		for slot, i := range idxs {
			d := dels[i]
			// Re-check the endpoints (the 32-bit pack can collide) and
			// compare the edge values directly.
			if d.Src != src || d.Dst != dst {
				continue
			}
			match := true
			for a := 0; a < ne; a++ {
				if val(e, a) != d.Vals[a] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			ids[i] = e
			pending[key] = append(idxs[:slot], idxs[slot+1:]...)
			matched++
			break
		}
	}
	if matched < len(dels) {
		for _, idxs := range pending {
			if len(idxs) > 0 {
				d := dels[idxs[0]]
				return nil, fmt.Errorf("core: batch retraction %d: no live edge %d->%d with those values",
					idxs[0], d.Src, d.Dst)
			}
		}
	}
	return ids, nil
}

// applyDeletes tombstones the resolved rows in both the owned graph and the
// store (which may compact).
func (inc *Incremental) applyDeletes(delRows []int32) error {
	if len(delRows) == 0 {
		return nil
	}
	for _, row := range delRows {
		if err := inc.g.RemoveEdge(int(inc.st.EdgeID(row))); err != nil {
			return fmt.Errorf("core: retract row %d: %w", row, err)
		}
	}
	return inc.st.RemoveEdges(delRows)
}

// rebuildPool re-seeds the pool with a full capture mine over the current
// store (seed mine, the per-batch fallback for non-delta-safe batches, and
// the bounded pool's underflow re-mine). The rebuilt pool is complete, so
// any spilled frontier is subsumed and its floor resets. The pool and the
// mining scratch are reset in place, not reallocated: steady-state rebuilds
// reuse the previous batch's capacity.
func (inc *Incremental) rebuildPool(stats *Stats) {
	inc.pool.reset()
	inc.fan.full(nil, inc.pool.capture, stats)
	inc.spillFloor = math.Inf(-1)
	inc.spilled = false
}

// witnesses is the scoped re-mine's batch: every inserted and deleted edge,
// with its values. Each node of the scoped walk carries the set of
// witnesses that still match its descriptor — an inserted edge while it
// matches l ∧ w ∧ r, a deleted edge while it matches l ∧ w — and a descent
// whose set empties holds no pool entrant (see the package comment). The
// table is O(batch × attributes) and refilled in place by every batch.
type witnesses struct {
	// edges lists the witnesses' graph edge ids, inserted edges first:
	// witnesses [0, nIns) are inserted and [nIns, n) deleted. Sets list
	// ids ascending, so a set holds a deletion iff its last id is at least
	// nIns.
	edges []int32
	nIns  int
	// vals holds stride values per witness (filled by gather): its nv
	// source-node (LHS) values, its nv destination-node (RHS) values, then
	// its edge values — so a (side, attribute) pair is one column index
	// (colL, colR, colW).
	vals       []graph.Value
	nv, stride int
}

func (w *witnesses) colL(attr int) int { return attr }
func (w *witnesses) colR(attr int) int { return w.nv + attr }
func (w *witnesses) colW(attr int) int { return 2*w.nv + attr }

func (w *witnesses) val(i int32, col int) graph.Value { return w.vals[int(i)*w.stride+col] }

// hasDelete reports whether the ascending set holds a deleted edge.
func (w *witnesses) hasDelete(set []int32) bool {
	return len(set) > 0 && int(set[len(set)-1]) >= w.nIns
}

// inserted returns the prefix of the ascending set that holds its inserted
// edges.
func (w *witnesses) inserted(set []int32) []int32 {
	for w.hasDelete(set) {
		set = set[:len(set)-1]
	}
	return set
}

// keeps reports whether witness i stays in a set extended by val in col: it
// carries val there, or it is a deleted edge and col is an RHS column —
// deletion entrants are carried on l ∧ w only, so R extensions pass them.
func (w *witnesses) keeps(i int32, col int, val graph.Value) bool {
	if int(i) >= w.nIns && col >= w.nv && col < 2*w.nv {
		return true
	}
	return w.val(i, col) == val
}

// collectWitnessesInto records the batch's inserted rows and doomed rows
// into the engine's reusable witness table by graph edge id. It must run
// before the doomed rows tombstone: RemoveEdges may compact and renumber
// rows, while edge ids are stable and the graph keeps a removed edge's
// endpoints and values readable.
func collectWitnessesInto(w *witnesses, st *store.Store, newIDs, delRows []int32) {
	w.nIns = len(newIDs)
	w.edges = slices.Grow(w.edges[:0], len(newIDs)+len(delRows))
	for _, rows := range [2][]int32{newIDs, delRows} {
		for _, e := range rows {
			w.edges = append(w.edges, st.EdgeID(e))
		}
	}
}

// gather fills the value table from g (the store's graph).
func (w *witnesses) gather(g *graph.Graph) {
	schema := g.Schema()
	nv, ne := len(schema.Node), len(schema.Edge)
	w.nv, w.stride = nv, 2*nv+ne
	w.vals = slices.Grow(w.vals[:0], len(w.edges)*w.stride)
	for _, id := range w.edges {
		e := int(id)
		w.vals = append(w.vals, g.NodeValues(g.Src(e))...)
		w.vals = append(w.vals, g.NodeValues(g.Dst(e))...)
		w.vals = append(w.vals, g.EdgeValues(e)...)
	}
}

// rightSubtreeAffected decides whether a root RIGHT subtree with n live
// edges in its partition can hold a deletion entrant. Every deleted edge is
// a witness there — the subtree's GRs have empty l ∧ w, which every edge
// matches — but a sharp score bound rules most subtrees out: every GR in
// the subtree has LW = |E|, Hom = 0 (empty LHS ⇒ empty β, so nhp
// degenerates to conf throughout), and LWR ≤ n, and every DeleteSafe metric
// is non-decreasing in LWR at fixed LW, so Score({LWR: n, LW: E, E: E})
// bounds every score below the subtree from above. A subtree whose bound
// misses minScore holds no condition-(1) candidate at all, so its deleted
// witnesses are dropped — the saving that keeps deletion batches from
// re-walking the whole RIGHT block.
func rightSubtreeAffected(opt Options, n, liveE int) bool {
	bound := opt.Metric.Score(metrics.Counts{LWR: n, LW: liveE, E: liveE})
	return bound >= opt.MinScore
}

// remineAffectedSubtrees re-mines exactly the first-level SFDF subtrees
// some batch witness reaches, on f's workers, and leaves the pool's
// condition-(1) set exact: every candidate found that pool already tracks
// is updated in place, and every other one is replayed through emit, in the
// sequential walk's order (see fanOut). The enumeration mirrors the
// decomposition of parallel.go's buildTasks (root RIGHT, EDGE, and LEFT
// blocks) so every GR of the full walk belongs to exactly one subtree.
// Shared by the single-store incremental engine and the shard workers
// (whose witnesses are insert-only); both stores keep postings, so each
// first-level partition's size and rows come straight off the store's
// per-(attribute, value) live-row bitmap — no O(|E| × dims) counting-sort
// pass over the full edge set — and every deeper descent narrows the node's
// witness set (miner.wit), pruning descents it empties. That is exact at
// every depth: an entrant's witness matches the entrant's descriptor, so it
// matches every ancestor's, and it survives on the whole SFDF path. A
// non-nil touched receives the ids of the entries updated in place.
//
// Scoped re-mining is only sound when the metric cannot raise a score
// outside the witnessed subtrees.
//
// grlint:requires DeltaSafe DeleteSafe
func remineAffectedSubtrees(f *fanOut, pool *densePool, wit *witnesses, emit func(gr.GR, metrics.Counts, float64), touched *[]intern.GRID, stats *Stats) (remined, total int) {
	wit.gather(f.st.Graph())
	f.pool = pool
	m := f.start(wit, nil).m
	sr := rhsOrder(m.schema, gr.Descriptor(nil).Has)
	if m.opt.StaticRHSOrder {
		sr = staticRHSOrder(m.schema)
	}
	f.tasks, total = planScoped(m, sr, f.tasks[:0])
	remined = len(f.tasks)
	// The full live edge list is only needed as the base partition (the LW
	// denominator) of root RIGHT subtrees, so insert-only batches that
	// touch none skip the O(|E|) walk.
	var all []int32
	if remined > 0 && f.tasks[0].block == blockRight {
		all = f.st.AllEdgesInto(m.scr.allRows)
		m.scr.allRows = all
	}
	ws := f.grow(remined)
	// Any worker may draw the largest subtree, and its first-level rows
	// land in the worker's depth-1 buffer: size every worker's buffer for
	// it up front rather than regrow it task by task.
	largest := 0
	for i := range f.tasks {
		largest = max(largest, f.tasks[i].size)
	}
	for _, w := range ws {
		w.m.buffer(1, largest)
	}
	f.run(ws, all, sr, emit, stats, true)
	for _, w := range ws {
		if touched != nil {
			*touched = append(*touched, w.touched...)
		}
		w.touched = w.touched[:0]
	}
	f.pool = nil
	return remined, total
}

// assemble applies Definition 5 conditions (2) and (3) to the pool and
// packages the result. The pool is the complete condition-(1) set, so
// rankCandidates decides both exactly; assemble runs once per batch, so it
// reuses the engine's candidate scratch and blocker map.
func (inc *Incremental) assemble(stats *Stats, d time.Duration) *Result {
	collected := inc.mergeScratch[:0]
	for i := range inc.pool.entries {
		t := &inc.pool.entries[i]
		collected = append(collected, gr.Scored{
			GR: t.gr, Supp: t.c.LWR, Score: t.score, Conf: metrics.Conf(t.c),
		})
	}
	inc.mergeScratch = collected
	inc.scr.blockers.reset()
	top := rankCandidates(collected, inc.opt.K, !inc.opt.NoGeneralityFilter, inc.scr.blockers, stats)
	stats.Candidates = int64(len(collected))
	stats.Duration = d
	return &Result{TopK: top, Stats: *stats, Options: inc.opt, TotalEdges: inc.st.NumEdges()}
}

// assembleBounded is assemble wrapped in the bounded-pool protocol: when a
// spilled frontier exists and the merged top-k cannot be proven independent
// of it, the complete pool is re-mined from the store (re-mine-on-underflow)
// and the merge repeated — the answer is then exact by the unbounded
// argument. Afterwards the pool is trimmed back under PoolCap. With PoolCap
// unset this is exactly assemble.
func (inc *Incremental) assembleBounded(stats *Stats, bs *IncStats, start time.Time) *Result {
	res := inc.assemble(stats, time.Since(start))
	if inc.opt.PoolCap > 0 {
		if inc.spilled && inc.underflow(res) {
			inc.rebuildPool(stats)
			bs.UnderflowRemines = 1
			res = inc.assemble(stats, time.Since(start))
		}
		bs.Spilled += inc.trimPool()
	}
	return res
}

// underflow reports whether the merged result may depend on a spilled pool
// entry. Every spilled entry's current score is at most spillFloor: its
// score at spill time was, and any rise since would have required a
// witness — an inserted edge matching its l ∧ w ∧ r, or a deleted edge
// matching its l ∧ w — and a witness of an entry matches every node on the
// entry's SFDF path, so the scoped re-mine reached the entry and
// re-captured it into the pool (unless the root RIGHT bound proved it no
// candidate at all). So a top-k whose k-th score strictly beats spillFloor,
// at full length, is provably what the unbounded pool would have produced
// (spilled generality blockers are retained by trimPool, so blocking
// decisions cannot depend on the frontier either). Ties are treated as
// underflow: rank order among equal scores could differ.
func (inc *Incremental) underflow(res *Result) bool {
	if len(res.TopK) < inc.opt.K {
		return true
	}
	return res.TopK[len(res.TopK)-1].Score <= inc.spillFloor
}

// trimPool spills the pool down to PoolCap entries, keeping the cap
// best-scoring ones plus — a soft overflow — every would-be-spilled entry
// that generalises a kept one (same RHS, L and W subsets): those are the
// generality blockers condition (2) needs, and dropping one could wrongly
// surface a kept specialisation. Transitivity makes checking against the
// top-cap set sufficient: a blocker's blocker generalises the same kept
// entry. The highest spilled score feeds spillFloor, the underflow bound;
// the floor resets only when rebuildPool recovers the complete pool.
//
// Exactness of the spill itself rests on the re-capture argument in
// underflow's comment: a spilled entry re-enters the pool in the same
// ApplyBatch that could raise its score or make it block a new entrant (the
// batch edge driving either change is a witness of the entry: a new
// entrant's witness matches the entrant's descriptor, hence that of every
// generalisation that could block it), so between batches the frontier only ever holds
// entries that are provably irrelevant while the k-th score stays above
// spillFloor.
func (inc *Incremental) trimPool() (spilled int) {
	cap := inc.opt.PoolCap
	if cap <= 0 || inc.pool.len() <= cap {
		return 0
	}
	entries := inc.pool.entries
	order := make([]int32, len(entries))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := &entries[order[i]], &entries[order[j]]
		if a.score != b.score {
			return a.score > b.score
		}
		return a.gr.Key() < b.gr.Key()
	})
	kept := order[:cap]
	byRHS := make(map[intern.DescID][]int32, cap)
	if !inc.opt.NoGeneralityFilter {
		for _, i := range kept {
			rid := inc.pool.dict.NodeDesc(entries[i].gr.R)
			byRHS[rid] = append(byRHS[rid], i)
		}
	}
	// Spill ids are collected first: deleting swap-removes dense slots, which
	// would invalidate the index order mid-iteration.
	spillIDs := make([]intern.GRID, 0, len(order)-cap)
	for _, i := range order[cap:] {
		t := &entries[i]
		blocks := false
		for _, k := range byRHS[inc.pool.dict.NodeDesc(t.gr.R)] {
			if t.gr.L.SubsetOf(entries[k].gr.L) && t.gr.W.SubsetOf(entries[k].gr.W) {
				blocks = true
				break
			}
		}
		if blocks {
			continue // retained as a generality blocker (soft overflow)
		}
		spillIDs = append(spillIDs, inc.pool.ids[i])
		if t.score > inc.spillFloor {
			inc.spillFloor = t.score
		}
		inc.spilled = true
		spilled++
	}
	for _, id := range spillIDs {
		inc.pool.delete(id)
	}
	return spilled
}
