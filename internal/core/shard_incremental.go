// Shard-aware incremental mining: maintain the exact global top-k while
// edge batches stream in, with every edge routed to the shard that owns it
// under the deterministic partitioning strategy — and with all per-shard
// pool maintenance on the worker's side of the ShardWorker boundary, so the
// engine drives remote shardd workers exactly like in-process ones.
//
// The engine composes the two maintenance arguments already in the tree:
//
//   - Per shard, the worker maintains the relaxed candidate pool its seed
//     offer produced (every GR whose shard support reaches ⌈minSupp/shards⌉,
//     with exact per-shard counts). Because the per-shard pool is
//     support-gated only — score thresholds are global-side — maintenance
//     is simpler than the single-store incremental engine's: supports never
//     decrease under insertions, so entries are never dropped, and a GR can
//     enter a shard's pool only when an inserted edge matching its full
//     descriptor pushes its shard support over the threshold. That edge
//     is the GR's witness, so the witness-scoped re-mine of the owning
//     shard (the same scoped walk the single-store engine uses, now run
//     inside WorkerState.Ingest) discovers every entrant. No DeltaSafe gate is needed: the lift
//     family's global-score movement is re-evaluated at merge time from
//     summed counts, so every metric takes the scoped path and no batch
//     ever falls back to a full re-mine. The worker replies with the pool
//     deltas — every entry the batch touched, named by its pool handle,
//     with a GR by value only for entrants — and the coordinator's union
//     pool mirrors the worker pools without ever reading shard-local state.
//
//   - Across shards, every ApplyBatch ends with the coordinator merge of
//     shard.go over the maintained global pool: summed counts, global
//     condition (1) with the sketch-capped round-2 bound, and
//     rankCandidates for conditions (2)-(3). The coordinator keeps the
//     per-shard coarse count sketches fresh itself while routing (it sees
//     every edge), so no extra round trip is spent on them.
//
// The maintained per-shard pools deliberately omit the batch protocol's
// OfferBound filter: a bound derived from a past edge set can rise as other
// shards grow, which would demand re-admitting dropped offers. The
// merge-side sketch caps — always computed from the current sketches, and
// valid as pure upper bounds regardless of how the pools were built —
// recover the round-2 saving for the incremental path too.
//
// Exactness: after every ApplyBatch the result equals a fresh sharded
// mine (ShardCoordinator.Mine) of the grown graph, which equals a fresh single-store mine under Options(). The oracle
// tests assert both equalities per batch for every metric and floor mode.
package core

import (
	"fmt"
	"sync"
	"time"

	"grminer/internal/graph"
	"grminer/internal/metrics"
)

// IncrementalSharded maintains the top-k GRs of a growing network over a
// sharded edge set. It owns the graph passed to NewIncrementalSharded
// (edges are appended to it) and is not safe for concurrent use.
type IncrementalSharded struct {
	g        *graph.Graph
	opt      Options
	plan     ShardPlan
	workers  []ShardWorker
	sketches []ShardSketch
	// pool is the maintained union of the per-shard relaxed pools: exact
	// per-shard counts for every GR some shard's support qualifies,
	// assembled purely from worker offers and ingest deltas. Its handle
	// mirrors let a delta apply by handle without re-keying its GR.
	pool *unionTable
	// merge is the coordinator merge and its scratch, reused every batch.
	merge shardMerge
	last  *Result
	cum   IncStats
	// broken poisons the engine after a failure past the point of no
	// return: once the owned graph has grown, a worker that failed to
	// ingest (a dropped remote connection, a restarted daemon) holds less
	// than its slice, and any later merge would silently under-count. All
	// further batches are refused instead.
	broken error
}

// NewIncrementalSharded partitions g's edges, builds one in-process worker
// per shard, seeds the per-shard candidate pools with one offer round, and
// merges them into the initial top-k. Options follow NewShardCoordinator: a
// dynamic floor forces ExactGenerality, and Options() returns the effective
// settings a batch mine must use to reproduce the maintained result.
func NewIncrementalSharded(g *graph.Graph, opt Options, so ShardOptions) (*IncrementalSharded, error) {
	return NewIncrementalShardedFrom(g, opt, so, WorkerBuilder(InProcessWorkers))
}

// NewIncrementalShardedFrom is NewIncrementalSharded with an explicit
// worker builder (internal/rpc.Fleet places every shard on a shardd
// daemon; when the builder is a RebuildingBuilder, as a Fleet is, a lost
// worker is rebuilt and its routed-batch log replayed mid-stream instead
// of poisoning the engine). Close releases the workers.
func NewIncrementalShardedFrom(g *graph.Graph, opt Options, so ShardOptions, build FleetBuilder) (*IncrementalSharded, error) {
	opt, plan, sketches, workers, err := buildShardDeployment(g, opt, so, build)
	if err != nil {
		return nil, err
	}
	inc := &IncrementalSharded{
		g:        g,
		opt:      opt,
		plan:     plan,
		workers:  workers,
		sketches: sketches,
		pool:     newUnionTable(len(workers), opt.Metric),
	}

	start := time.Now()
	var stats Stats
	// A nil bound asks each worker for its plain pigeonhole pool AND seeds
	// the worker-side maintained pool Ingest delta-updates from now on.
	pools, shardStats, errs := offerAll(inc.workers, nil)
	for i := range inc.workers {
		if errs[i] != nil {
			inc.Close()
			return nil, fmt.Errorf("core: shard %d seed: %w", i, errs[i])
		}
		addStats(&stats, &shardStats[i])
		if err := inc.applyDeltas(i, seedReply(pools[i], inc.opt.Metric, inc.workers[i].NumEdges())); err != nil {
			inc.Close()
			return nil, fmt.Errorf("core: shard %d seed: %w", i, err)
		}
	}
	inc.last, err = inc.assemble(&stats, start)
	if err != nil {
		inc.Close()
		return nil, err
	}
	inc.cum.Tracked = inc.pool.len()
	return inc, nil
}

// Options returns the engine's effective (normalized) options.
func (inc *IncrementalSharded) Options() Options { return inc.opt }

// Plan returns the sharding layout; its Edges reflect the current per-shard
// edge counts, including every batch applied so far.
func (inc *IncrementalSharded) Plan() ShardPlan { return inc.plan }

// Result returns the current top-k (the result of the last ApplyBatch, or the
// seed mine). The returned value is shared; callers must not mutate it.
func (inc *IncrementalSharded) Result() *Result { return inc.last }

// Cumulative returns lifetime totals across all ApplyBatch calls.
func (inc *IncrementalSharded) Cumulative() IncStats { return inc.cum }

// Close releases the workers (remote connections, for a remote deployment).
func (inc *IncrementalSharded) Close() error { return closeWorkers(inc.workers) }

// FleetHealth reports the per-shard failover record: liveness, retries,
// replacements, and replayed batches. Deployments whose builder cannot
// rebuild replacements report every shard live with zero counters.
func (inc *IncrementalSharded) FleetHealth() []WorkerHealth { return fleetHealth(inc.workers) }

// ApplyBatch validates the whole mixed batch, applies it to the owned graph,
// routes every insertion and retraction to its owning shard (the routing
// strategies are endpoint-pure, so a retraction lands on the shard holding
// the edge), hands each worker its slice to ingest (worker-side pool
// maintenance, including below-threshold demotions), applies the returned
// deltas to the union pool, and re-merges the global top-k. Like
// Incremental.ApplyBatch, a malformed insert or an unmatched retraction
// rejects the batch before any state changes; retractions resolve against
// the pre-batch edge set. A failure *after* the graph has changed — a
// worker that could not ingest its slice, which only a remote transport can
// produce — permanently poisons the engine: the coordinator and that worker
// now disagree on the edge set, so every further ApplyBatch returns the original
// error instead of a silently under-counted result.
func (inc *IncrementalSharded) ApplyBatch(b Batch) (*Result, IncStats, error) {
	if inc.broken != nil {
		return nil, IncStats{}, fmt.Errorf("core: sharded incremental engine unusable after earlier failure: %w", inc.broken)
	}
	start := time.Now()
	for i, e := range b.Ins {
		if err := inc.g.CheckEdge(e.Src, e.Dst, e.Vals...); err != nil {
			return nil, IncStats{}, fmt.Errorf("core: batch edge %d: %w", i, err)
		}
	}
	delIDs, err := resolveGraphDeletes(inc.g, b.Del)
	if err != nil {
		return nil, IncStats{}, err
	}
	owned := make([]Batch, len(inc.workers))
	for _, e := range b.Ins {
		if _, err := inc.g.AddEdge(e.Src, e.Dst, e.Vals...); err != nil {
			// Unreachable after CheckEdge; kept as an invariant guard.
			return nil, IncStats{}, err
		}
		s, err := inc.g.ShardOf(inc.plan.Strategy, inc.plan.Shards, e.Src, e.Dst)
		if err != nil {
			return nil, IncStats{}, err
		}
		owned[s].Ins = append(owned[s].Ins, e)
		// The coordinator routes every edge, so it keeps the coarse count
		// sketches fresh without a round trip.
		inc.sketches[s].addEdge(inc.g.NodeValues(e.Src), inc.g.NodeValues(e.Dst), e.Vals)
		inc.pool.routed[s]++
	}
	for i, id32 := range delIDs {
		id := int(id32)
		src, dst := inc.g.Src(id), inc.g.Dst(id)
		s, err := inc.g.ShardOf(inc.plan.Strategy, inc.plan.Shards, src, dst)
		if err != nil {
			return nil, IncStats{}, err
		}
		if err := inc.g.RemoveEdge(id); err != nil {
			return nil, IncStats{}, err
		}
		owned[s].Del = append(owned[s].Del, b.Del[i])
		// Tombstoned values stay readable; the sketch keeps matching the
		// shard's surviving edges.
		inc.sketches[s].removeEdge(inc.g.NodeValues(src), inc.g.NodeValues(dst), inc.g.EdgeValues(id))
		inc.pool.routed[s]++
	}

	bs := IncStats{Batches: 1, Edges: len(b.Ins), Deleted: len(b.Del)}
	t0 := time.Now()
	bs.RouteTime = t0.Sub(start)
	replies := make([]IngestReply, len(inc.workers))
	ingErrs := make([]error, len(inc.workers))
	var wg sync.WaitGroup
	for s := range inc.workers {
		if len(owned[s].Ins) == 0 && len(owned[s].Del) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			replies[s], ingErrs[s] = inc.workers[s].Ingest(owned[s])
		}(s)
	}
	wg.Wait()
	t1 := time.Now()
	bs.IngestTime = t1.Sub(t0)
	var stats Stats
	for s := range inc.workers {
		if len(owned[s].Ins) == 0 && len(owned[s].Del) == 0 {
			continue
		}
		if ingErrs[s] != nil {
			inc.broken = fmt.Errorf("core: shard %d ingest: %w", s, ingErrs[s])
			return nil, IncStats{}, inc.broken
		}
		rep := replies[s]
		inc.plan.Edges[s] = rep.NumEdges
		bs.Recounted += rep.Recounted
		bs.SubtreesRemined += rep.SubtreesRemined
		bs.SubtreesTotal += rep.SubtreesTotal
		addStats(&stats, &rep.Stats)
		if err := inc.applyDeltas(s, &rep); err != nil {
			inc.broken = fmt.Errorf("core: shard %d ingest reply: %w", s, err)
			return nil, IncStats{}, inc.broken
		}
	}
	bs.ApplyTime = time.Since(t1)
	inc.last, err = inc.assemble(&stats, start)
	if err != nil {
		// The batch is already ingested everywhere; only the merge's
		// round-2 fetch can fail here, and retrying it needs worker state
		// this engine can no longer trust.
		inc.broken = err
		return nil, IncStats{}, err
	}
	bs.BoundTime, bs.FetchTime, bs.RankTime = inc.merge.bound, inc.merge.fetchTime, inc.merge.rank
	bs.Tracked = inc.pool.len()
	bs.Duration = inc.last.Stats.Duration
	inc.cum.add(bs)
	return inc.last, bs, nil
}

// resolveGraphDeletes maps each retraction to a distinct live graph edge
// matching its endpoints and edge values exactly (the shared
// resolveRetractions loop over graph edges); results index-align with dels.
// An unmatched retraction is an error (the caller rejects the batch
// unmutated).
func resolveGraphDeletes(g *graph.Graph, dels []EdgeDelete) ([]int32, error) {
	return resolveRetractions(dels, len(g.Schema().Edge), g.NumEdges(), func(e int) (int, int, bool) {
		if !g.EdgeAlive(e) {
			return 0, 0, false
		}
		return g.Src(e), g.Dst(e), true
	}, g.EdgeValue)
}

// seedReply recasts a seeding offer as an ingest reply in which every
// candidate enters the pool, so the seed and every batch apply through the
// same checks.
func seedReply(offers []ShardCandidate, m metrics.Metric, numEdges int) *IngestReply {
	rep := &IngestReply{NumEdges: numEdges, Entered: offers}
	for _, c := range offers {
		rep.addDelta(m, c.Handle, c.Counts)
	}
	return rep
}

// applyDeltas records (or refreshes) shard s's exact counts for every
// delta of rep. Other shards' counts are NOT fetched here: the merge
// requests them lazily and only for candidates whose support bound
// survives (see mergeShardPool), which keeps pool maintenance linear in
// the deltas. The invariant the bound needs — have[s] false ⟹ shard s's
// support is below ShardMinSupp — holds throughout: the batch that pushes
// a GR's support over the threshold on shard s matches the GR's full
// descriptor there, so that shard's scoped re-mine re-captures it and the
// delta lands back here; and a deletion that demotes it below the
// threshold arrives as a delta with final counts under ShardMinSupp,
// flipping have[s] back to false (the worker stopped tracking it, so its
// future counts are unknown here). An entry no worker tracks leaves the
// pool entirely — n·(t−1) < minSupp, so it cannot qualify globally.
//
// Deltas address entries by handle; only entrants carry their GR, so the
// union's key map is consulted just for entrants and for entries leaving
// the union. A reply is untrusted input: misaligned count columns, an
// unknown or repeated handle, or an entrant that is malformed or already
// tracked is an error, never a panic. A worker's dictionary grows only by
// pool entrants, so an entrant's handle lies below the table's length plus
// the reply's entrant count; that bound also caps what a hostile handle
// can make the table allocate.
func (inc *IncrementalSharded) applyDeltas(s int, rep *IngestReply) error {
	n := len(rep.Deltas)
	m := inc.opt.Metric
	if len(rep.LWR) != n || len(rep.LW) != n || len(rep.Hom) != colLen(m.NeedsHom, n) || len(rep.R) != colLen(m.NeedsR, n) {
		return fmt.Errorf("count columns (LWR %d, LW %d, Hom %d, R %d) misaligned with %d deltas",
			len(rep.LWR), len(rep.LW), len(rep.Hom), len(rep.R), n)
	}
	t := inc.pool
	ht := &t.mirror[s]
	limit := len(ht.cand) + len(rep.Entered)
	for _, e := range rep.Entered {
		h := int(e.Handle)
		if h < 0 || h >= limit {
			return fmt.Errorf("entrant handle %d outside [0, %d)", h, limit)
		}
		for len(ht.cand) <= h {
			ht.cand = append(ht.cand, -1)
			ht.seen = append(ht.seen, 0)
		}
		if ht.cand[h] >= 0 {
			return fmt.Errorf("entrant handle %d already tracked", h)
		}
		if _, err := t.enter(inc.g.Schema(), e.GR, s, int32(h)); err != nil {
			return fmt.Errorf("entrant handle %d: %w", h, err)
		}
	}
	if ht.stamp++; ht.stamp == 0 {
		clear(ht.seen)
		ht.stamp = 1
	}
	for i, h := range rep.Deltas {
		if h < 0 || int(h) >= len(ht.cand) || ht.cand[h] < 0 {
			return fmt.Errorf("delta %d: handle %d neither tracked nor entering", i, h)
		}
		if ht.seen[h] == ht.stamp {
			return fmt.Errorf("delta %d: handle %d repeated", i, h)
		}
		ht.seen[h] = ht.stamp
		slot := ht.cand[h]
		if int(rep.LWR[i]) < inc.plan.ShardMinSupp {
			t.drop(slot, s)
			continue
		}
		t.lwr[s][slot], t.lw[s][slot] = rep.LWR[i], rep.LW[i]
		if m.NeedsHom {
			t.hom[s][slot] = rep.Hom[i]
		}
		if m.NeedsR {
			t.r[s][slot] = rep.R[i]
		}
	}
	for _, e := range rep.Entered {
		if ht.seen[e.Handle] != ht.stamp {
			return fmt.Errorf("entrant handle %d has no delta", e.Handle)
		}
	}
	return nil
}

// colLen is the length a count column must have for n deltas: n when the
// metric reads the field, else zero.
func colLen(needed bool, n int) int {
	if needed {
		return n
	}
	return 0
}

// assemble runs the coordinator merge (with its round-2 exact-count
// fetches) over the maintained pool; Duration runs from start to the end
// of the merge.
func (inc *IncrementalSharded) assemble(stats *Stats, start time.Time) (*Result, error) {
	top, err := inc.merge.run(inc.opt, inc.plan.ShardMinSupp, inc.g.NumLiveEdges(), inc.workers, inc.sketches, inc.pool, inc.g.Schema(), stats)
	if err != nil {
		return nil, err
	}
	stats.Duration = time.Since(start)
	return &Result{TopK: top, Stats: *stats, Options: inc.opt, TotalEdges: inc.g.NumLiveEdges()}, nil
}
