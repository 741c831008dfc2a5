// Fully dynamic top-k GR mining: edge insertions AND deletions in mixed
// batches, over a tracked candidate pool.
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
//     most-general-first merge every engine ends in.
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
//     This is the same candidate-union soundness argument the static
//     mine's fan-out makes for its task decomposition (parallel.go),
//     applied to the subset of tasks the batch touches. Under a score
//     gate, metrics that are not DeltaSafe (the lift family, whose scores
//     can rise when |E| grows) rebuild the pool every batch, and metrics
//     that are DeltaSafe but not DeleteSafe (gain, which reads E) rebuild
//     only for batches containing deletions; with MinScore −Inf only an
//     inserted witness brings an entrant, so no batch rebuilds
//     (liveStore.apply, the one batch kernel of both live engines).
//
// Floors are decrement-safe by construction: nothing about condition (3) is
// persisted across batches. Every ApplyBatch re-derives the k-th best score
// from the surviving pool in assemble — a deletion that demotes or evicts a
// current top-k member simply yields a lower merged floor next batch,
// whereas a floor carried across batches would wrongly keep pruning at the
// stale, higher value.
//
// Exactness: after every ApplyBatch, the returned top-k equals a fresh batch
// mine of the surviving graph under the engine's effective options. A
// dynamic floor forces ExactGenerality so condition (2) is
// order-independent; the oracle tests in incremental_test.go and
// dynamic_test.go assert the equivalence after every batch, for every
// metric, in both floor modes.
package core

import (
	"fmt"
	"runtime"
	"time"

	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
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
// such edges; the one with the lowest id goes). Deletions resolve against
// the graph as it stood BEFORE the batch — a batch cannot delete an edge it
// also inserts — and a retraction matching no pre-batch live edge rejects
// the whole batch.
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
	// Dropped counts pool entries the recount dropped: a score decayed
	// below minScore, or a support fallen below minSupp.
	Dropped int
	// SubtreesRemined / SubtreesTotal report the scoped re-mine's
	// selectivity over first-level SFDF subtrees (both zero on a full
	// rebuild).
	SubtreesRemined int
	SubtreesTotal   int
	// FullRemines counts batches that rebuilt the pool from scratch: under
	// a score gate, a non-DeltaSafe metric, a negative minScore, or a
	// deletion under a metric that is not DeleteSafe; never with MinScore
	// −Inf. NeedsR is no condition: DeltaSafe already rules out a score
	// rising outside the witnessed subtrees, and the recount keeps R exact.
	FullRemines int
	// Duration is the wall-clock ApplyBatch time.
	Duration time.Duration
	// The phase times of a sharded batch (IncrementalSharded; zero on the
	// single-store engine), which sum to at most Duration: RouteTime
	// validates the batch, applies it to the graph and splits it by shard;
	// IngestTime waits for the slowest worker's ingest reply; ApplyTime
	// applies the replies' deltas to the union pool; BoundTime is the
	// merge's round-2 bound pass, which also scores every entry all shards
	// track; FetchTime waits for the round-2 exact counts; RankTime scores
	// the fetched entries and ranks the survivors.
	RouteTime, IngestTime, ApplyTime time.Duration
	BoundTime, FetchTime, RankTime   time.Duration
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
	s.Duration += b.Duration
	s.RouteTime += b.RouteTime
	s.IngestTime += b.IngestTime
	s.ApplyTime += b.ApplyTime
	s.BoundTime += b.BoundTime
	s.FetchTime += b.FetchTime
	s.RankTime += b.RankTime
}

// Incremental maintains the top-k GRs of a growing network. It owns the
// graph passed to NewIncremental (edges are appended to it) and is not safe
// for concurrent use.
type Incremental struct {
	// liveStore holds the graph, the store, the pool (keyed by the store's
	// persistent dictionary) and the walk state, and applies every batch;
	// with mergeScratch it is the engine's steady-state allocation set
	// (DESIGN.md §7).
	liveStore
	opt          Options
	mergeScratch []gr.Scored
	last         *Result
	cum          IncStats
}

// NewIncremental builds the compact store for g, runs one full mine to seed
// the tracked pool, and returns the engine. Options follow MineStore, except
// that a dynamic floor forces ExactGenerality so the maintained result is
// order-independent (the batch-equivalent reference is a fresh mine under
// Options()).
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
		// Order-independent blocking is what makes "maintained result ≡
		// fresh mine" well-defined under a dynamic floor (see
		// Options.ExactGenerality).
		opt.ExactGenerality = true
	}
	// The single store captures every condition-(1) candidate: the pool's
	// gate is the engine's own (MinSupp, MinScore).
	live, err := newLiveStore(g, nil, captureOptions(opt), width)
	if err != nil {
		return nil, err
	}
	inc := &Incremental{liveStore: live, opt: opt}
	var stats Stats
	start := time.Now()
	inc.rebuild(&stats)
	inc.last = inc.assemble(&stats, time.Since(start))
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
// candidate pool, or false when q is not tracked (it is not a
// condition-(1) candidate) — callers then fall back to a full scan of the
// graph. Counts.Hom and Counts.R are only tracked when the engine's metric
// reads them (NeedsHom, NeedsR); otherwise they are 0. Explain only reads the pool and its
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
	var stats Stats
	bs, err := inc.apply(b, nil, inc.pool.capture, nil, &stats)
	if err != nil {
		return nil, IncStats{}, err
	}
	inc.last = inc.assemble(&stats, time.Since(start))
	bs.Tracked = inc.pool.len()
	bs.Duration = inc.last.Stats.Duration
	inc.cum.add(bs)
	return inc.last, bs, nil
}

// resolveRetractions is the shared retraction-resolution loop of the
// single-store engine (over EArray rows), the sharded coordinator, and the
// shard workers (over graph edges): match each EdgeDelete to a distinct
// live edge with identical endpoints and edge values, deterministically
// claiming candidates in id order (a multigraph may hold several; the
// lowest-id unclaimed instance goes). The scan pre-filters by an endpoint
// hash so the common case — a huge edge set, a handful of retractions —
// touches two ints per row, not a per-row formatted key. An unmatched
// retraction is an error naming the lowest unmatched index; callers reject
// the whole batch unmutated.
func resolveRetractions(dels []EdgeDelete, ne, numRows int, endpoints func(e int) (src, dst int, alive bool), val func(e, a int) graph.Value) ([]int32, error) {
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
	ids := make([]int32, len(dels))
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
			ids[i] = int32(e)
			pending[key] = append(idxs[:slot], idxs[slot+1:]...)
			matched++
			break
		}
	}
	if matched < len(dels) {
		// Name the lowest unmatched retraction: each pending list is
		// ascending, so it is the least head (map order is random).
		first := len(dels)
		for _, idxs := range pending {
			if len(idxs) > 0 {
				first = min(first, idxs[0])
			}
		}
		d := dels[first]
		return nil, fmt.Errorf("core: batch retraction %d: no live edge %d->%d with those values",
			first, d.Src, d.Dst)
	}
	return ids, nil
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
