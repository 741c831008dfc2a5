// Sharded top-k GR mining: partition the edge set, mine every partition as
// an independent worker, and merge the per-shard results into the exact
// global top-k.
//
// Soundness rests on the same candidate-union argument the static mine's
// fan-out (parallel.go) and the incremental engine (incremental.go) already
// make, lifted from subtrees to shards. Every count a metric reads — LWR, LW, Hom,
// R, E — is an edge count, and the shards partition the edge set, so a GR's
// global count is exactly the sum of its per-shard counts. Consequences:
//
//  1. Offer completeness. A GR satisfying Definition 5 condition (1)
//     globally has global support ≥ minSupp, so by pigeonhole at least one
//     of the n shards holds ≥ t = ⌈minSupp/n⌉ of its matching edges. A
//     shard worker therefore mines its shard with the support threshold
//     lowered to t and the score threshold removed (−Inf): within a shard,
//     support is anti-monotone along the SFDF walk, so the walk reaches
//     every GR whose shard support meets the lowered bound, and the capture
//     hook offers each one with its exact shard counts. The union of the
//     per-shard offers is then a superset of the global condition-(1) set.
//     Score thresholds must NOT be applied per shard: a shard's local score
//     neither bounds nor is bounded by the global score (the global value
//     of a ratio metric is the count-weighted mediant of the per-shard
//     values), and the shard holding a GR's support mass may well hold its
//     worst-scoring edges. This is also why the coordinator cannot ship its
//     pruning floor to the shard workers — floor updates only become
//     applicable once counts are global, which happens on the coordinator's
//     side of the boundary.
//
//  2. Two-round count-then-verify. The lone-shard pigeonhole threshold is
//     tight, and per-shard enumeration at t blows up as shards get thinner
//     (measured in BENCH_sharding.json). The protocol therefore runs in two
//     rounds. Round 1 (count): each worker mines its relaxed pool at t
//     under an OfferBound derived from the coarse count sketches the
//     coordinator collected while partitioning — subtrees whose global
//     singleton bound or own-support-plus-others'-capacity bound falls
//     below minSupp are cut, because every GR below them provably fails
//     condition (1) globally (shard_worker.go carries the math; no
//     qualifying GR is ever pruned). Round 2 (verify): the coordinator
//     re-scores the offered union from summed counts and requests exact
//     counts — batched per worker — only for candidates whose summed bound
//     can still reach minSupp, where a shard that never offered a candidate
//     contributes at most min(t−1, its sketch's singleton bound). The
//     surviving set is exactly the global condition-(1) set, so
//     rankCandidates (parallel.go), the level-ordered blocker merge every
//     engine ends in, decides condition (2) exactly; condition (3) is rank.
//
// Like the incremental engines, a dynamic floor forces
// ExactGenerality so the result is order-independent; Options() returns the
// effective settings a single-store mine must use to reproduce the sharded
// result.
//
// The coordinator/worker boundary is the ShardWorker interface of
// shard_worker.go — offer a candidate pool, answer batched count queries,
// ingest routed edges — and workers are built from self-contained
// WorkerSpec values, so the in-process deployment and the remote shardd
// deployment (internal/rpc) drive identical worker code. No mining state is
// shared across the boundary; only specs, bounds, ShardCandidate values,
// and gr.GR queries cross it.
package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/intern"
	"grminer/internal/metrics"
)

// DefaultCheckpointInterval is the acknowledged-batch count between worker
// checkpoints when ShardOptions leaves CheckpointInterval zero. Recovery
// replays at most this many batches, so the value trades checkpoint traffic
// (one full-state blob per interval per shard) against worst-case recovery
// latency; OPERATIONS.md has the sizing guidance.
const DefaultCheckpointInterval = 8

// ShardOptions selects the sharding layout of a sharded mine.
type ShardOptions struct {
	// Shards is the number of edge partitions (≥ 1).
	Shards int
	// Strategy is the deterministic edge-routing rule; the zero value
	// selects graph.ShardBySource.
	Strategy graph.ShardStrategy
	// CheckpointInterval is the number of acknowledged ingest batches
	// between worker checkpoints on failover-supervised deployments: the
	// supervisor pulls a full-state blob from the worker every interval and
	// truncates its replay log to the post-checkpoint suffix, bounding
	// recovery replay by the interval instead of the stream length
	// (DESIGN.md §9). Zero selects DefaultCheckpointInterval; a negative
	// value disables checkpointing (full-log replay, the pre-checkpoint
	// behavior). Irrelevant without a RebuildingBuilder — no supervisor, no
	// log to truncate.
	CheckpointInterval int
}

// normalize fills defaults and validates.
func (so ShardOptions) normalize() (ShardOptions, error) {
	if so.Shards < 1 {
		return so, fmt.Errorf("core: shard count %d < 1", so.Shards)
	}
	if so.Strategy == "" {
		so.Strategy = graph.ShardBySource
	}
	if _, err := graph.ParseShardStrategy(string(so.Strategy)); err != nil {
		return so, err
	}
	if so.CheckpointInterval == 0 {
		so.CheckpointInterval = DefaultCheckpointInterval
	}
	return so, nil
}

// ShardPlan describes one sharded run: the layout plus the lowered
// per-shard offer threshold the completeness argument licenses.
type ShardPlan struct {
	// Shards and Strategy echo the (normalized) ShardOptions.
	Shards   int
	Strategy graph.ShardStrategy
	// ShardMinSupp is ⌈MinSupp/Shards⌉, the support threshold each shard
	// worker mines with.
	ShardMinSupp int
	// Edges holds the per-shard edge counts of the current assignment.
	Edges []int
}

// String renders the plan for CLI display.
func (p ShardPlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shards: %d by %s, shard minSupp=%d, edges=[", p.Shards, p.Strategy, p.ShardMinSupp)
	for i, e := range p.Edges {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", e)
	}
	b.WriteByte(']')
	return b.String()
}

// shardCand is one union-pool entry: a GR with its per-shard counts. have
// marks shards whose counts are known (offered, or delta-reported by a
// worker's Ingest); the merge fetches the rest through the worker interface
// without writing them back — a shard that never offered an entry may grow
// its count later, so only worker-reported counts are durable. slot is the
// entry's index in its unionTable while it is live, −1 once it has left.
type shardCand struct {
	gr   gr.GR
	per  []metrics.Counts
	have []bool
	slot int
}

// unionTable is the coordinator's union pool: every GR some shard offered
// or tracks, in a dense slot table the merge walks in place. An entry takes
// the next slot when it first enters and gives it up by swap-remove when
// the last shard drops it, so the slot order — and with it the round-2
// request order — depends only on the sequence of offers and deltas. The
// key map is consulted only when an entry enters or leaves; the merge
// itself never computes a key.
type unionTable struct {
	shards int
	slots  []*shardCand
	byKey  map[string]*shardCand
}

func newUnionTable(shards int) *unionTable {
	return &unionTable{shards: shards, byKey: make(map[string]*shardCand)}
}

// enter records that shard s tracks g, creating g's entry on first sight,
// and returns the entry; the caller fills per[s]. g is untrusted worker
// output: a GR that is malformed for the schema, or that shard s already
// tracks, is an error and leaves the table unchanged.
func (t *unionTable) enter(schema *graph.Schema, g gr.GR, s int) (*shardCand, error) {
	if err := validGR(schema, g); err != nil {
		return nil, err
	}
	key := g.Key()
	u := t.byKey[key]
	if u == nil {
		u = &shardCand{
			gr:   g,
			per:  make([]metrics.Counts, t.shards),
			have: make([]bool, t.shards),
			slot: len(t.slots),
		}
		t.byKey[key] = u
		t.slots = append(t.slots, u)
	} else if u.have[s] {
		return nil, fmt.Errorf("GR %v already tracked by shard %d", g, s)
	}
	u.have[s] = true
	return u, nil
}

// drop forgets shard s's counts for u and frees u's slot once no shard
// tracks it: the last slot's entry moves into the hole.
func (t *unionTable) drop(u *shardCand, s int) {
	u.per[s] = metrics.Counts{}
	u.have[s] = false
	for _, h := range u.have {
		if h {
			return
		}
	}
	delete(t.byKey, u.gr.Key())
	last := len(t.slots) - 1
	moved := t.slots[last]
	t.slots[u.slot] = moved
	moved.slot = u.slot
	t.slots[last] = nil
	t.slots = t.slots[:last]
	u.slot = -1
}

// ShardCoordinator owns a sharded mining run: the plan, the per-shard
// workers, the coarse count sketches, and the merge that re-assembles the
// exact global top-k.
type ShardCoordinator struct {
	plan       ShardPlan
	opt        Options // normalized effective options
	schema     *graph.Schema
	workers    []ShardWorker
	sketches   []ShardSketch
	totalEdges int
}

// NewShardCoordinator partitions g's edges under so, builds one in-process
// worker per shard, and returns a coordinator ready to Mine. Options follow
// MineStore, except that a dynamic floor forces ExactGenerality so the
// merged result is order-independent.
func NewShardCoordinator(g *graph.Graph, opt Options, so ShardOptions) (*ShardCoordinator, error) {
	return NewShardCoordinatorFrom(g, opt, so, WorkerBuilder(InProcessWorkers))
}

// NewShardCoordinatorFrom is NewShardCoordinator with an explicit worker
// builder: InProcessWorkers for the single-machine deployment, or a remote
// builder (internal/rpc.Builder, internal/rpc.Fleet) that hands every
// WorkerSpec to a shardd daemon. When the builder is a RebuildingBuilder,
// workers are wrapped in replay supervisors and the run survives worker
// loss (see FleetHealth). Close releases the workers.
func NewShardCoordinatorFrom(g *graph.Graph, opt Options, so ShardOptions, build FleetBuilder) (*ShardCoordinator, error) {
	opt, plan, sketches, workers, err := buildShardDeployment(g, opt, so, build)
	if err != nil {
		return nil, err
	}
	return &ShardCoordinator{
		plan:       plan,
		opt:        opt,
		schema:     g.Schema(),
		workers:    workers,
		sketches:   sketches,
		totalEdges: g.NumLiveEdges(),
	}, nil
}

// buildShardDeployment normalizes the options, partitions g, computes the
// per-shard coarse count sketches, and builds one worker per shard from its
// spec — the construction shared by the batch coordinator and the sharded
// incremental engine. When the builder can rebuild replacements, every
// worker is wrapped in a replay supervisor (failover.go) before the
// deployment is returned. On a builder error, already-built workers are
// closed.
func buildShardDeployment(g *graph.Graph, opt Options, so ShardOptions, build FleetBuilder) (Options, ShardPlan, []ShardSketch, []ShardWorker, error) {
	opt, so, err := normalizeSharded(g, opt, so)
	if err != nil {
		return opt, ShardPlan{}, nil, nil, err
	}
	parts, err := graph.PartitionEdges(g, so.Shards, so.Strategy)
	if err != nil {
		return opt, ShardPlan{}, nil, nil, err
	}
	plan := planFromParts(opt, so, parts)
	sketches := make([]ShardSketch, len(parts))
	workers := make([]ShardWorker, len(parts))
	specs := make([]WorkerSpec, len(parts))
	for i, part := range parts {
		sketches[i] = newShardSketch(g.Schema())
		for _, e32 := range part {
			e := int(e32)
			sketches[i].addEdge(g.NodeValues(g.Src(e)), g.NodeValues(g.Dst(e)), g.EdgeValues(e))
		}
		specs[i] = buildWorkerSpec(g, opt, plan, part, i)
		w, err := build.Build(specs[i])
		if err != nil {
			closeWorkers(workers[:i])
			return opt, plan, nil, nil, fmt.Errorf("core: shard %d worker: %w", i, err)
		}
		workers[i] = w
	}
	superviseWorkers(build, specs, workers, so.CheckpointInterval)
	return opt, plan, sketches, workers, nil
}

// closeWorkers closes every non-nil worker, returning the first error.
func closeWorkers(workers []ShardWorker) error {
	var first error
	for _, w := range workers {
		if w == nil {
			continue
		}
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// offerAll runs every worker's offer round concurrently (offers are
// independent per shard) and returns the per-shard pools, stats, and
// errors, indexed by shard. bounds may be nil (the incremental seed, which
// also seeds the workers' maintained pools) or hold one OfferBound per
// worker (the batch protocol's round 1).
func offerAll(workers []ShardWorker, bounds []*OfferBound) ([][]ShardCandidate, []Stats, []error) {
	pools := make([][]ShardCandidate, len(workers))
	stats := make([]Stats, len(workers))
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w ShardWorker) {
			defer wg.Done()
			var b *OfferBound
			if bounds != nil {
				b = bounds[i]
			}
			pools[i], stats[i], errs[i] = w.Offer(b)
		}(i, w)
	}
	wg.Wait()
	return pools, stats, errs
}

// normalizeSharded applies the shared option/limit validation of a sharded
// engine (batch coordinator and incremental alike).
func normalizeSharded(g *graph.Graph, opt Options, so ShardOptions) (Options, ShardOptions, error) {
	opt, err := opt.normalize()
	if err != nil {
		return opt, so, err
	}
	if n := len(g.Schema().Node); n > 64 {
		return opt, so, fmt.Errorf("core: %d node attributes exceed the supported maximum of 64", n)
	}
	if opt.PoolCap > 0 {
		// A per-shard pool is gated purely on the pigeonhole support
		// threshold; spilling any entry of it could lose the one shard
		// offer a globally qualifying GR is guaranteed to have, so the
		// bounded-pool protocol is single-store only (DESIGN.md §4e).
		return opt, so, fmt.Errorf("core: PoolCap is not supported by the sharded engines (it would break offer completeness)")
	}
	if opt.DynamicFloor && !opt.NoGeneralityFilter {
		// Mirror the incremental engines: order-independent
		// blocking is what makes "sharded ≡ single store" well-defined
		// under a dynamic floor (see Options.ExactGenerality).
		opt.ExactGenerality = true
	}
	so, err = so.normalize()
	return opt, so, err
}

// planFromParts assembles the plan for a normalized layout.
func planFromParts(opt Options, so ShardOptions, parts [][]int32) ShardPlan {
	p := ShardPlan{
		Shards:       so.Shards,
		Strategy:     so.Strategy,
		ShardMinSupp: (opt.MinSupp + so.Shards - 1) / so.Shards,
		Edges:        make([]int, len(parts)),
	}
	for i, part := range parts {
		p.Edges[i] = len(part)
	}
	return p
}

// Plan returns the layout of this run.
func (sc *ShardCoordinator) Plan() ShardPlan { return sc.plan }

// Options returns the effective (normalized) options — what a single-store
// mine must use to reproduce the sharded result.
func (sc *ShardCoordinator) Options() Options { return sc.opt }

// Close releases the workers (remote connections, for a remote deployment).
func (sc *ShardCoordinator) Close() error { return closeWorkers(sc.workers) }

// FleetHealth reports the per-shard failover record: liveness, retries,
// replacements, and replayed batches. Deployments whose builder cannot
// rebuild replacements report every shard live with zero counters.
func (sc *ShardCoordinator) FleetHealth() []WorkerHealth { return fleetHealth(sc.workers) }

// Mine runs the two-round protocol: round 1 offers on every shard
// concurrently under the sketch-derived bounds, then the merge with its
// batched round-2 exact-count queries. The result is the exact global
// top-k.
func (sc *ShardCoordinator) Mine() (*Result, error) {
	start := time.Now()
	bounds := buildOfferBounds(sc.opt.MinSupp, sc.sketches)
	pools, shardStats, errs := offerAll(sc.workers, bounds)
	var stats Stats
	for i := range sc.workers {
		if errs[i] != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, errs[i])
		}
		addStats(&stats, &shardStats[i])
	}

	pool := newUnionTable(len(sc.workers))
	for i, offers := range pools {
		for j, cand := range offers {
			u, err := pool.enter(sc.schema, cand.GR, i)
			if err != nil {
				return nil, fmt.Errorf("core: shard %d offer %d: %w", i, j, err)
			}
			u.per[i] = cand.Counts
		}
	}

	topList, err := mergeShardPool(sc.opt, sc.plan.ShardMinSupp, sc.totalEdges, sc.workers, sc.sketches, pool, sc.schema, &stats)
	if err != nil {
		return nil, err
	}
	stats.Duration = time.Since(start)
	return &Result{TopK: topList, Stats: stats, Options: sc.opt, TotalEdges: sc.totalEdges}, nil
}

// mergeItem is one merge survivor: the union-pool entry plus, when some
// shard's counts are unknown, the offset of its n per-shard fetch indexes
// in the merge's fetch column (−1 when every shard's counts are known).
// Fetched counts live beside the pool, never in it.
type mergeItem struct {
	u     *shardCand
	fetch int32
}

// mergeShardPool re-scores every pool candidate from its summed per-shard
// counts and applies Definition 5 conditions (1)-(3) globally. It is shared
// by the batch coordinator and the sharded incremental engine.
//
// Round-2 bounding: a shard that did not offer a candidate holds at most
// t−1 = shardMinSupp−1 of its support (the offer round enumerates every GR
// at or above that threshold; the OfferBound prune only ever removes
// globally non-qualifying GRs, for which any rejection is correct), and at
// most its sketch's smallest singleton count for the candidate's
// conditions. A candidate whose known supports plus those caps cannot reach
// MinSupp fails condition (1) without a counting scan; survivors' missing
// counts are fetched in one batched Counts call per worker. Stats records
// the (candidate, shard) fetch volume (ExactCountRequests).
//
// Survivors are re-scored in one sequential loop and handed, with a fresh
// blocker map, to rankCandidates, which applies conditions (2) and (3).
// The pool is walked in slot order, and the result does not depend on it:
// rankCandidates orders by generality level and gr.Less breaks every rank
// tie by key. Each shard's round-2 request lists its GRs in slot order,
// which the sequence of offers and deltas fixes, so the requests are
// deterministic too.
func mergeShardPool(opt Options, shardMinSupp, totalEdges int, workers []ShardWorker, sketches []ShardSketch, pool *unionTable, schema *graph.Schema, stats *Stats) ([]gr.Scored, error) {
	// Round-2 bound pass: pure arithmetic over known counts and sketches.
	n := len(workers)
	items := make([]mergeItem, 0, len(pool.slots))
	needs := make([][]gr.GR, n)
	var fetch []int32
	for _, u := range pool.slots {
		bound, unknown := 0, 0
		for s := 0; s < n; s++ {
			if u.have[s] {
				bound += u.per[s].LWR
				continue
			}
			unknown++
			slack := shardMinSupp - 1
			if ms := sketches[s].minSingle(u.gr); ms < slack {
				slack = ms
			}
			bound += slack
		}
		if bound < opt.MinSupp {
			continue // cannot satisfy condition (1); skip the verify round
		}
		it := mergeItem{u: u, fetch: -1}
		if unknown > 0 {
			it.fetch = int32(len(fetch))
			for s := 0; s < n; s++ {
				// A shard whose sketch proves it cannot contribute to any
				// count the metric reads is taken as zero without a fetch
				// (fetch index stays -1).
				f := int32(-1)
				if !u.have[s] && sketches[s].contributes(opt.Metric, u.gr) {
					f = int32(len(needs[s]))
					needs[s] = append(needs[s], u.gr)
					stats.ExactCountRequests++
				}
				fetch = append(fetch, f)
			}
		}
		items = append(items, it)
	}

	// Round-2 fetch pass: one batched exact-count query per worker.
	fetched := make([][]metrics.Counts, n)
	fetchErrs := make([]error, n)
	var fwg sync.WaitGroup
	for s := 0; s < n; s++ {
		if len(needs[s]) == 0 {
			continue
		}
		fwg.Add(1)
		go func(s int) {
			defer fwg.Done()
			fetched[s], fetchErrs[s] = workers[s].Counts(needs[s])
		}(s)
	}
	fwg.Wait()
	for s, err := range fetchErrs {
		if err != nil {
			return nil, fmt.Errorf("core: shard %d exact counts: %w", s, err)
		}
		if len(needs[s]) > 0 && len(fetched[s]) != len(needs[s]) {
			return nil, fmt.Errorf("core: shard %d returned %d counts for %d queries", s, len(fetched[s]), len(needs[s]))
		}
	}

	// Re-score from the summed counts. Candidates keeps its documented
	// meaning — GRs meeting both *global* thresholds — so it is overwritten
	// rather than added to the offer-round counters (work done at the
	// relaxed shard thresholds), as the single-store assemble does.
	var survivors []gr.Scored
	for _, it := range items {
		var c metrics.Counts
		for s := 0; s < n; s++ {
			per := it.u.per[s]
			if !it.u.have[s] {
				f := fetch[it.fetch+int32(s)]
				if f < 0 {
					continue // provably zero contribution, never fetched
				}
				per = fetched[s][f]
			}
			c.LWR += per.LWR
			c.LW += per.LW
			c.Hom += per.Hom
			c.R += per.R
		}
		c.E = totalEdges
		score := opt.Metric.Score(c)
		if c.LWR < opt.MinSupp || !(score >= opt.MinScore) {
			continue
		}
		survivors = append(survivors, gr.Scored{GR: it.u.gr, Supp: c.LWR, Score: score, Conf: metrics.Conf(c)})
	}
	stats.Candidates = int64(len(survivors))
	bm := newBlockerMap(intern.NewDict(intern.NewLayout(schema)))
	return rankCandidates(survivors, opt.K, !opt.NoGeneralityFilter, bm, stats), nil
}
