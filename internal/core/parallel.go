package core

import (
	"math"
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
// decides ExactGenerality through its own dense verdict memo, count kernel
// and lazily filled store.BitmapIndex (a worker rebuilds the few bitmaps
// another worker already built rather than synchronise on a shared one),
// and the coordinator merges the per-worker results exactly once after all
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

// parTask is one first-level subtree, tagged with its partition size so the
// scheduler can start the largest subtrees first.
type parTask struct {
	size int
	run  func(w *miner)
}

// mineParallel runs GRMiner with opt.Parallelism workers.
func mineParallel(st *store.Store, opt Options) (*Result, error) {
	start := time.Now()

	// The coordinator miner builds the first-level partitions.
	coord := newMiner(st, opt)
	tasks := buildTasks(coord)

	// With zero or one task there is nothing to run concurrently; spawning
	// idle workers would only pay goroutine and merge overhead. Run the
	// task (if any) on one sequential miner (parF nil, so consider() takes
	// the sequential path; opt is already normalized, so the
	// DynamicFloor/ExactGenerality semantics match the parallel path) and
	// reuse the first-level work the coordinator already did rather than
	// re-partitioning the full edge set.
	if len(tasks) < 2 {
		m := newMiner(st, opt)
		for _, t := range tasks {
			t.run(m)
		}
		stats := coord.stats
		addStats(&stats, &m.stats)
		stats.Duration = time.Since(start)
		return &Result{TopK: m.top.Items(), Stats: stats, Options: opt, TotalEdges: st.NumEdges()}, nil
	}

	// Largest partitions first: first-level subtree cost grows with
	// partition size, so scheduling big tasks early keeps the tail of the
	// run filled with small ones. The stable sort keeps the build order for
	// equal sizes, which keeps scheduling deterministic.
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].size > tasks[j].size })

	workers := opt.Parallelism
	if workers > len(tasks) {
		workers = len(tasks)
	}
	floor := newParFloor()
	miners := make([]*miner, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		w := newMiner(st, opt)
		w.parF = floor
		miners[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= len(tasks) {
					return
				}
				tasks[t].run(w)
			}
		}()
	}
	wg.Wait()

	// Merge once: coordinator stats (supp pruning observed while building
	// tasks) plus every worker's results. A static floor leaves candidates
	// in collected, a dynamic one in the bound-k local lists; each run
	// fills only one of the two. Unless ExactGenerality already blocked
	// in-worker, condition (2) is decided here, through the coordinator's
	// own (unused) blocker map.
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

// buildTasks materialises the first-level partitions. Each partition's id
// slice is copied out of the coordinator's scratch buffer because the tasks
// outlive the loop.
func buildTasks(m *miner) []parTask {
	if m.totalE == 0 {
		return nil
	}
	all := m.st.AllEdges()
	var tasks []parTask
	buf := m.buffer(1, len(all))

	// Root RIGHT block: GRs with empty LHS and W. Each worker needs its own
	// rctx (the homophily-effect cache is written during search), sharing
	// the read-only full edge list as base.
	sr := rhsOrder(m.schema, gr.Descriptor(nil).Has)
	if m.opt.StaticRHSOrder {
		sr = staticRHSOrder(m.schema)
	}
	for pos := 0; pos < len(sr); pos++ {
		attr := sr[pos]
		groups := m.partition(1, all, m.st.RValsInto, attr, buf)
		for _, grp := range groups {
			if grp.Val == uint16(graph.Null) {
				continue
			}
			if int(grp.N) < m.opt.MinSupp {
				m.stats.PrunedSupp++
				continue
			}
			part := append([]int32(nil), buf[grp.Lo:grp.Hi]...)
			rhs2 := gr.Descriptor(nil).With(attr, graph.Value(grp.Val))
			tasks = append(tasks, parTask{size: len(part), run: func(w *miner) {
				rc := &rctx{base: all, sr: sr}
				w.rightGroup(rc, part, 1, rhs2, pos)
			}})
		}
	}

	// Root EDGE block.
	for pos := 0; pos < len(m.swOrder); pos++ {
		attr := m.swOrder[pos]
		groups := m.partition(1, all, m.st.EValsInto, attr, buf)
		for _, grp := range groups {
			if grp.Val == uint16(graph.Null) {
				continue
			}
			if int(grp.N) < m.opt.MinSupp {
				m.stats.PrunedSupp++
				continue
			}
			part := append([]int32(nil), buf[grp.Lo:grp.Hi]...)
			w2 := gr.Descriptor(nil).With(attr, graph.Value(grp.Val))
			tasks = append(tasks, parTask{size: len(part), run: func(w *miner) {
				w.edgeGroup(part, 1, nil, w2, pos)
			}})
		}
	}

	// Root LEFT block.
	for pos := 0; pos < len(m.slOrder); pos++ {
		attr := m.slOrder[pos]
		groups := m.partition(1, all, m.st.LValsInto, attr, buf)
		for _, grp := range groups {
			if grp.Val == uint16(graph.Null) {
				continue
			}
			if int(grp.N) < m.opt.MinSupp {
				m.stats.PrunedSupp++
				continue
			}
			part := append([]int32(nil), buf[grp.Lo:grp.Hi]...)
			lhs2 := gr.Descriptor(nil).With(attr, graph.Value(grp.Val))
			tasks = append(tasks, parTask{size: len(part), run: func(w *miner) {
				w.leftGroup(part, 1, lhs2, pos)
			}})
		}
	}
	return tasks
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
