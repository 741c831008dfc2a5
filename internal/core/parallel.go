package core

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/store"
	"grminer/internal/topk"
)

// Parallel mining decomposes the SFDF tree at its first level: the root's
// children — one per (attribute, value) partition of the full edge set,
// across the RIGHT, EDGE, and LEFT blocks — become independent tasks that
// worker goroutines process with private miner state (partitioner, scratch
// buffers, caches, statistics).
//
// The execution engine is lock-light. Workers share exactly one word of
// mutable state: the pruning floor, an atomic.Uint64 holding float64 bits
// that is CAS-raised (never lowered) when a worker's local k-th best score
// beats it. Everything else is private: each worker accumulates candidates
// into its own topk.List (DynamicFloor) or candidate slice (static floor),
// decides ExactGenerality through its own dense verdict memo and count
// kernel over the mine's one complete, read-only store.BitmapIndex, and the
// coordinator merges the per-worker results exactly once after all
// workers finish. Tasks are drained from a slice ordered largest-partition-
// first through an atomic index, so the biggest subtrees start earliest and
// stragglers do not tail the run; claiming a task is a single atomic add.
//
// Soundness (the coordinator ends in rankCandidates, the one
// condition-(2)/(3) merge every engine shares):
//
//   - the tasks partition the enumeration space exactly as the sequential
//     walk does, so every GR is examined by exactly one worker;
//   - supp pruning is local and unaffected;
//   - with a static floor, workers prune only on MinScore, so the union of
//     the per-worker candidate slices is the complete set of GRs satisfying
//     Definition 5 condition (1); rankCandidates then applies condition (2)
//     in generality order (a complete candidate set makes the blocker-map
//     filter exact) and condition (3) by rank. The merge consumes only the
//     union of the collected candidates, never *when* (or through which
//     worker) they arrived;
//   - with DynamicFloor, normalize() forces ExactGenerality so condition
//     (2) is decided order-independently inside each worker; each local
//     list therefore holds only genuinely qualifying, unblocked candidates.
//     A worker's local k-th best score is a lower bound on the global k-th
//     best (the best k of a superset dominate the best k of any subset), so
//     the shared atomic floor — the maximum of local k-th bests published
//     so far — never exceeds the final k-th best score and subtree pruning
//     below it is sound. Floor *timing* varies across runs, affecting work
//     done but never the result set: a pruned subtree only contains
//     candidates scoring strictly below some floor value, hence strictly
//     below the final k-th best score. Every global top-k entry survives in
//     its worker's bound-k local list (it outranks the global k-th, so it
//     can never be evicted), which makes ranking the union of the local
//     lists exact.

// parFloor is the one piece of shared mutable state: the dynamic pruning
// floor as atomic float64 bits. Reads are a single atomic load; raises are
// a CAS loop comparing as floats (bit-pattern ordering would be wrong for
// negative scores, which gain and Piatetsky-Shapiro can produce).
type parFloor struct {
	// grlint:atomic every worker reads this on every candidate; a plain
	// load/store would race with the CAS raise.
	bits atomic.Uint64
}

func newParFloor() *parFloor {
	f := &parFloor{}
	f.bits.Store(math.Float64bits(math.Inf(-1)))
	return f
}

// load returns the current floor (-Inf until the first raise).
func (p *parFloor) load() float64 { return math.Float64frombits(p.bits.Load()) }

// raise lifts the floor to s if s beats the current value. The floor is
// monotonically non-decreasing: a stale competing CAS can only have
// published a lower value, which the retry loop then overwrites.
func (p *parFloor) raise(s float64) {
	for {
		old := p.bits.Load()
		if s <= math.Float64frombits(old) {
			return
		}
		if p.bits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
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

// runTasks is the one task runner behind every walk that splits the SFDF
// tree at its first level: the static parallel mine and the engines'
// capture walks (fanOut). It drains tasks over up to width workers through
// an atomic index into a largest-partition-first schedule — first-level
// subtree cost grows with partition size, so starting big tasks early keeps
// the tail of the run filled with small ones — and runs each task with
// run(worker, task). Claiming a task is a single atomic add. Worker 0 is
// the calling goroutine, so a width of 1 (or a single task) starts no
// goroutine at all. The stable sort keeps the build order for equal sizes;
// tasks itself is never reordered. order is the caller's schedule scratch,
// returned for reuse.
func runTasks(width int, tasks []parTask, order []int32, run func(worker int, t *parTask)) []int32 {
	order = order[:0]
	for i := range tasks {
		order = append(order, int32(i))
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(tasks[b].size, tasks[a].size) })
	width = min(width, len(tasks))
	var next atomic.Int64
	drain := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(order) {
				return
			}
			run(w, &tasks[order[i]])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain(w)
		}()
	}
	drain(0)
	wg.Wait()
	return order
}

// walkTask reads t's partition rows off idx into the depth-1 buffer and
// descends into t's first-level subtree over them. Bitmaps yield rows
// ascending, the order a stable counting sort of the ascending live edge
// list leaves a partition in, so the walk below is the sequential walk's.
// all is the full live edge list, the base partition (LW denominator) of
// root RIGHT subtrees, and sr the root RHS order; both are shared
// read-only by every worker.
func (m *miner) walkTask(t *parTask, idx *store.BitmapIndex, all []int32, sr []int) {
	rows := rootBitmap(idx, t).RowsInto(m.buffer(1, t.size))
	d := gr.Descriptor(nil).With(t.attr, t.val)
	switch t.block {
	case blockRight:
		m.rightGroup(&rctx{base: all, sr: sr}, rows, 1, d, t.pos)
	case blockEdge:
		m.edgeGroup(rows, 1, nil, d, t.pos)
	default:
		m.leftGroup(rows, 1, d, t.pos)
	}
}

// mineParallel runs GRMiner with opt.Parallelism workers.
func mineParallel(st *store.Store, opt Options) (*Result, error) {
	start := time.Now()

	// One complete bitmap index serves the whole mine: the coordinator plans
	// the first level off it, every worker reads its tasks' rows from it,
	// and it backs every worker's ExactGenerality and |E(r)| counts, so no
	// worker fills a bitmap another has already built.
	idx := store.BuildBitmapIndex(st)
	coord := newMiner(st, opt)
	tasks, sr, _ := coord.plan(idx, nil)
	if len(tasks) < 2 {
		// Nothing to run concurrently: mine sequentially, on the index
		// already built. The options are normalized, so the semantics match
		// the parallel path's.
		m := newMiner(st, opt)
		m.scr.genIdx = idx
		m.run()
		m.stats.Duration = time.Since(start)
		return &Result{TopK: m.top.Items(), Stats: m.stats, Options: opt, TotalEdges: st.NumEdges()}, nil
	}
	var all []int32
	if tasks[0].block == blockRight {
		all = st.AllEdges()
	}

	floor := newParFloor()
	miners := make([]*miner, min(opt.Parallelism, len(tasks)))
	for i := range miners {
		miners[i] = newMiner(st, opt)
		miners[i].parF = floor
		miners[i].scr.genIdx = idx
	}
	runTasks(len(miners), tasks, nil, func(w int, t *parTask) {
		miners[w].walkTask(t, idx, all, sr)
	})

	// Merge once: coordinator stats (supp pruning observed while planning)
	// plus every worker's results. A static floor leaves candidates in
	// collected, a dynamic one in the bound-k local lists; each run fills
	// only one of the two. Unless ExactGenerality already blocked in-worker,
	// condition (2) is decided here, through the coordinator's own (unused)
	// blocker map.
	stats := coord.stats
	var collected []gr.Scored
	for _, w := range miners {
		collected = append(collected, w.collected...)
		collected = append(collected, w.top.Items()...)
		addStats(&stats, &w.stats)
	}
	block := !opt.NoGeneralityFilter && !opt.ExactGenerality
	topList := rankCandidates(collected, opt.K, block, coord.scr.blockers, &stats)
	stats.Duration = time.Since(start)
	return &Result{TopK: topList, Stats: stats, Options: opt, TotalEdges: st.NumEdges()}, nil
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
