package core

import (
	"sort"
	"time"

	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/sched"
	"grminer/internal/store"
	"grminer/internal/topk"
)

// The static mine's fan-out splits the SFDF tree at its first level like
// every other walk (fanout.go): the root's children, one per (attribute,
// value) partition of the full edge set across the RIGHT, EDGE and LEFT
// blocks, become independent tasks that sched.Run drains over width workers.
// A worker is a plain sequential miner on its own scratch: it blocks
// in-worker, keeps a bound-k list and prunes on that list's own floor.
// Workers share no mutable state; the coordinator merges their lists once,
// after all of them finish, with topk.MergeItems.
//
// Soundness. The tasks partition the enumeration space exactly as the
// sequential walk does, so every GR is examined by exactly one worker, and
// supp pruning is local. Definition 5 condition (2) is decided in-worker
// through the exact-generality kernel (hasQualifyingGeneralization), with
// the worker's own blocker map as a pre-filter: a recorded blocker is a
// qualifying generalisation, so a hit proves the verdict the kernel would
// reach. The kernel's verdict depends only on the store, not on which
// worker enumerated what, and it equals the sequential walk's blocking
// whenever the latter is itself schedule-free: under a static floor every
// qualifying generalisation of a candidate is examined before it (pruning
// only cuts subtrees scoring below MinScore, Theorem 3), so the blocker map
// finds exactly what the kernel finds. Each local list therefore holds only
// genuinely unblocked candidates. A worker's local k-th best score is a
// lower bound on the global k-th best (the best k of a superset dominate
// the best k of any subset), so pruning a subtree below it only cuts GRs
// scoring strictly below the final k-th best; every global top-k entry
// survives in its worker's bound-k list, which makes merging the lists
// exact.
//
// fanOutExact names the mines for which this holds.

// maxExactConditions is the largest pattern (|L| + |W|) the exact
// generality kernel decides; beyond it hasQualifyingGeneralization falls
// back to the in-search blocker map, which a fanned-out worker holds for
// its own subtrees only.
const maxExactConditions = 20

// fanOutExact reports whether a static mine under opt over schema returns
// the same answer at every width, so it may fan out. That holds when the
// generality filter is off, or when the mine is not the paper's
// order-dependent blocking (a dynamic floor without ExactGenerality, whose
// answer depends on the order the walk meets candidates in) and no pattern
// can exceed the exact kernel's reach.
func fanOutExact(opt Options, schema *graph.Schema) bool {
	if opt.NoGeneralityFilter {
		return true
	}
	if opt.DynamicFloor && !opt.ExactGenerality {
		return false
	}
	return descriptorCap(opt.MaxL, len(schema.Node))+descriptorCap(opt.MaxW, len(schema.Edge)) <= maxExactConditions
}

// descriptorCap is the largest descriptor a cap (0 = unlimited) admits over
// n attributes.
func descriptorCap(limit, n int) int {
	if limit > 0 {
		return min(limit, n)
	}
	return n
}

// taskBlock names the root block a first-level subtree hangs off.
type taskBlock uint8

const (
	blockRight taskBlock = iota
	blockEdge
	blockLeft
)

// parTask is one first-level subtree: the partition of (attr, val) at loop
// position pos of its root block, tagged with its size so the runner can
// start the largest subtrees first. It holds no rows: its worker reads them
// off the bitmap index when the task starts (walkTask). worker, lo and hi
// record where a capture walk ran the task: the worker, and the span of
// that worker's capture buffer the task filled (see fanOut).
type parTask struct {
	block     taskBlock
	attr, pos int
	val       graph.Value
	size      int

	worker, lo, hi int32
}

// walkTask reads t's partition rows off idx into the depth-1 buffer and
// descends into t's first-level subtree over them. Bitmaps yield rows
// ascending, the order a stable counting sort of the ascending live edge
// list leaves a partition in, so the walk below is the sequential walk's.
// all is the full live edge list, the base partition (LW denominator) of
// root RIGHT subtrees, and sr the root RHS order; both are shared
// read-only by every worker. A root RIGHT subtree reads its rows only when
// RIGHT recurses below it (rightRows; its RHS child has an empty LHS, so it
// is non-trivial with an empty β).
func (m *miner) walkTask(t *parTask, idx *store.BitmapIndex, all []int32, sr []int) {
	d := gr.Descriptor(nil).With(t.attr, t.val)
	if t.block == blockRight {
		rc := &rctx{base: all, sr: sr}
		var rows []int32
		if m.rightRows(rc, t.size, 1, t.pos, false, 0) {
			rows = rootBitmap(idx, t).RowsInto(m.buffer(1, t.size))
		}
		m.rightGroup(rc, rows, t.size, 1, d, t.pos)
		return
	}
	rows := rootBitmap(idx, t).RowsInto(m.buffer(1, t.size))
	switch t.block {
	case blockEdge:
		m.edgeGroup(rows, 1, nil, d, t.pos)
	default:
		m.leftGroup(rows, 1, d, t.pos)
	}
}

// mineParallel runs GRMiner over up to width workers; fanOutExact(opt)
// must hold.
func mineParallel(st *store.Store, opt Options, width int) *Result {
	start := time.Now()

	// One bitmap index serves the whole mine: the coordinator plans
	// the first level off it, every worker reads its tasks' rows from it,
	// and it backs every worker's generality and |E(r)| counts. Values
	// below MinSupp are left out; the coordinator counts them as pruned.
	idx, cut := store.BuildBitmapIndex(st, opt.MinSupp)
	coord := newMiner(st, opt)
	coord.stats.PrunedSupp += int64(cut)
	tasks, sr, _ := coord.plan(idx, nil)
	if len(tasks) < 2 {
		// Nothing to run concurrently: mine sequentially, on the index
		// already built.
		m := newMiner(st, opt)
		m.scr.genIdx = idx
		m.run()
		m.stats.Duration = time.Since(start)
		return &Result{TopK: m.top.Items(), Stats: m.stats, Options: opt, TotalEdges: st.NumEdges()}
	}
	var all []int32
	if tasks[0].block == blockRight {
		all = st.AllEdges()
	}

	// A worker's blocker map sees its own subtrees only, so workers block
	// through the exact kernel too.
	wopt := opt
	wopt.ExactGenerality = !opt.NoGeneralityFilter
	miners := make([]*miner, min(width, len(tasks)))
	for i := range miners {
		miners[i] = newMiner(st, wopt)
		miners[i].scr.genIdx = idx
	}
	sched.Run(len(miners), len(tasks), func(i int) int { return tasks[i].size }, nil, func(w, i int) {
		miners[w].walkTask(&tasks[i], idx, all, sr)
	})

	stats := coord.stats
	lists := make([][]gr.Scored, len(miners))
	for i, w := range miners {
		lists[i] = w.top.Items()
		addStats(&stats, &w.stats)
	}
	stats.Duration = time.Since(start)
	return &Result{TopK: topk.MergeItems(opt.K, lists...).Items(), Stats: stats, Options: opt, TotalEdges: st.NumEdges()}
}

// addStats accumulates one miner's counters (not Duration) into total.
func addStats(total, s *Stats) {
	total.PartitionCalls += s.PartitionCalls
	total.Examined += s.Examined
	total.TrivialSeen += s.TrivialSeen
	total.PrunedSupp += s.PrunedSupp
	total.PrunedScore += s.PrunedScore
	total.Candidates += s.Candidates
	total.Blocked += s.Blocked
	total.HomScans += s.HomScans
	total.PrunedGlobal += s.PrunedGlobal
	total.ShardOffers += s.ShardOffers
	total.ExactCountRequests += s.ExactCountRequests
}

// rankCandidates applies Definition 5 conditions (2) and (3) to a complete
// condition-(1) candidate set; every engine ends in it. With block set, the
// candidates are filtered most-general-first through bm (each blocked one
// counted in stats.Blocked), which is exact because the set is complete:
// every generalisation of a candidate that meets condition (1) is itself in
// the set and is recorded before the candidate is probed. Sorting by
// generality level (|L|+|W|) alone suffices — a same-level subset relation
// forces equality, so same-level candidates never block one another, and
// gr.Less is a strict total order, so the ranked top-k does not depend on
// the order within a level. Without block, candidates were already filtered
// (or the filter is off) and only the ranking remains. collected is
// reordered in place.
func rankCandidates(collected []gr.Scored, k int, block bool, bm *blockerMap, stats *Stats) []gr.Scored {
	if !block {
		return topk.MergeItems(k, collected).Items()
	}
	sort.Slice(collected, func(i, j int) bool {
		return len(collected[i].GR.L)+len(collected[i].GR.W) <
			len(collected[j].GR.L)+len(collected[j].GR.W)
	})
	list := topk.New(k)
	for _, s := range collected {
		if bm.blocks(s.GR) {
			stats.Blocked++
			continue
		}
		bm.record(s.GR)
		list.Consider(s)
	}
	return list.Items()
}
