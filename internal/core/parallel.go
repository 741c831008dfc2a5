package core

import (
	"fmt"
	"sort"
	"time"

	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/sched"
	"grminer/internal/store"
	"grminer/internal/topk"
)

// The static mine splits the SFDF tree at its first level like every other
// walk (fanout.go): the root's children, one per (attribute, value)
// partition of the full edge set across the RIGHT, EDGE and LEFT blocks,
// become tasks. One miner walks them in plan order, or sched.Run drains
// them over width workers. A worker is a plain miner on its own scratch: it
// blocks in-worker, keeps a bound-k list and prunes on that list's own
// floor.
// Workers share no mutable state; the coordinator merges their lists once,
// after all of them finish, with topk.MergeItems.
//
// Soundness. The tasks partition the enumeration space exactly as the
// one-worker walk does, so every GR is examined by exactly one worker, and
// supp pruning is local. Definition 5 condition (2) is decided in-worker
// through the exact-generality kernel (hasQualifyingGeneralization), with
// the worker's own blocker map as a pre-filter: a recorded blocker is a
// qualifying generalisation, so a hit proves the verdict the kernel would
// reach. The kernel's verdict depends only on the store, not on which
// worker enumerated what, and it equals the one-worker walk's blocking
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
// that worker's capture buffer the task filled (see fanOut). The fields
// run largest first, so a task packs into 40 bytes.
type parTask struct {
	attr, pos, size int
	worker, lo, hi  int32
	val             graph.Value
	block           taskBlock
}

// walkTask descends into t's first-level subtree, handing it t's
// partition as the bitmap index's own read-only bitmap: a counting-sort
// consumer materialises its rows into the depth-1 buffer (see part).
// Bitmaps yield rows ascending, the order a stable counting sort of the
// ascending live edge list leaves a partition in, so the walk below is the
// one-worker walk's. sr is the root RHS order, shared read-only by every
// worker. A root RIGHT subtree hangs off the whole live edge list, of which
// it reads only the size (LW = |E|); its RHS child has an empty LHS, so it
// is non-trivial with an empty β.
func (m *miner) walkTask(t *parTask, idx *store.BitmapIndex, sr []int) {
	d := gr.Descriptor(nil).With(t.attr, t.val)
	p := part{bm: rootBitmap(idx, t), n: t.size}
	switch t.block {
	case blockRight:
		m.rightGroup(&rctx{lw: m.totalE, sr: sr}, p, 1, d, t.pos)
	case blockEdge:
		m.edgeGroup(p, 1, nil, d, t.pos)
	default:
		m.leftGroup(p, 1, d, t.pos)
	}
}

// mineStore is MineStore on up to width workers. It also returns the
// number of workers that walked: min(width, tasks) when it fans out
// (fanOutExact holds, and width and tasks are both at least 2), else 1.
func mineStore(st *store.Store, opt Options, width int) (*Result, int, error) {
	opt, err := opt.normalize()
	if err != nil {
		return nil, 0, err
	}
	schema := st.Graph().Schema()
	if n := len(schema.Node); n > 64 {
		// betaMask packs node-attribute indices into a uint64.
		return nil, 0, fmt.Errorf("core: %d node attributes exceed the supported maximum of 64", n)
	}
	start := time.Now()

	// One bitmap index serves the whole mine: the coordinator plans
	// the first level off it, every worker reads its tasks' rows from it,
	// and it backs every worker's generality and |E(r)| counts. Values
	// below MinSupp are left out; the coordinator counts them as pruned.
	idx, cut := store.BuildBitmapIndex(st, opt.MinSupp, width)
	indexed := time.Now()
	coord := newMiner(st, opt)
	coord.scr.genIdx = idx
	coord.stats.PrunedSupp += int64(cut)
	tasks, sr, _ := coord.plan(idx, nil)
	planned := time.Now()

	miners := []*miner{coord}
	if width > 1 && len(tasks) > 1 && fanOutExact(opt, schema) {
		// A worker's blocker map sees its own subtrees only, so workers
		// block through the exact kernel too.
		wopt := opt
		wopt.ExactGenerality = !opt.NoGeneralityFilter
		miners = make([]*miner, min(width, len(tasks)))
		for i := range miners {
			miners[i] = newMiner(st, wopt)
			miners[i].scr.genIdx = idx
		}
	}
	busy := make([]time.Duration, len(miners))
	walk := func(w, i int) {
		t0 := time.Now()
		miners[w].walkTask(&tasks[i], idx, sr)
		busy[w] += time.Since(t0)
	}
	if len(miners) == 1 {
		// One miner walks the tasks in plan order: the order paper
		// blocking depends on.
		for i := range tasks {
			walk(0, i)
		}
	} else {
		sched.Run(len(miners), len(tasks), func(i int) int { return tasks[i].size }, nil, walk)
	}
	walked := time.Now()

	stats, top := &coord.stats, coord.top
	if len(miners) > 1 {
		lists := make([][]gr.Scored, len(miners))
		for i, w := range miners {
			lists[i] = w.top.Items()
			addStats(stats, &w.stats)
		}
		top = topk.MergeItems(opt.K, lists...)
	}
	for _, b := range busy {
		stats.WalkBusy += b
	}
	res := &Result{TopK: top.Items(), Stats: *stats, Options: opt, TotalEdges: st.NumEdges()}
	res.Stats.phases(start, indexed, planned, walked)
	return res, len(miners), nil
}

// phases sets Duration and the phase times of a static mine that started
// at start, had built its index at indexed, its plan at planned and walked
// its tasks by walked, and has merged until now.
func (s *Stats) phases(start, indexed, planned, walked time.Time) {
	s.Duration = time.Since(start)
	s.IndexTime, s.PlanTime, s.WalkTime = indexed.Sub(start), planned.Sub(indexed), walked.Sub(planned)
	s.MergeTime = s.Duration - walked.Sub(start)
}

// addStats accumulates one miner's counters (not Duration or the phase
// times) into total.
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
