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
//     and filters it through an OfferBound derived from the coarse count
//     sketches the coordinator collected while partitioning — a GR whose
//     global singleton bound or own-support-plus-others'-capacity bound
//     falls below minSupp is not offered, because it provably fails
//     condition (1) globally (shard_worker.go carries the math; no
//     qualifying GR is ever dropped). Round 2 (verify): the coordinator
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

// unionTable is the coordinator's union pool: every GR some shard offered
// or tracks, held in slot-indexed columns the merge scans in place. An
// entry takes the next slot when it first enters and gives it up by
// swap-remove when the last shard drops it, so the slot order — and with it
// the round-2 request order — depends only on the sequence of offers and
// deltas. The key map is consulted only when an entry enters or leaves; the
// merge itself never computes a key.
//
// A slot's columns are its GR, its key, a shard-membership bitset (have:
// shard s's counts are known — offered, or delta-reported by a worker's
// Ingest) and, per shard, the counts the metric reads. E is not kept per
// entry: a shard's E is its edge count, held once in ShardPlan.Edges, and
// the merge reads only the global one. The merge fetches unknown counts
// through the worker interface without writing them back — a shard that
// never offered an entry may grow its count later, so only
// worker-reported counts are durable.
//
// The round-2 bound caps an untracking shard's share of a slot's support
// by its sketch (see shardMerge.run); capUntil caches that cap across
// batches (see sketchCap), and routed counts the edges routed to each shard
// since the table was built.
//
// The sharded incremental engine also names entries by the workers' pool
// handles: handle[s][slot] is the handle shard s's worker gives the slot's
// GR and mirror[s] maps it back to the slot, so a swap-remove re-points the
// moved entry's mirror entries. The static mine enters offers without
// handles.
type unionTable struct {
	shards int
	words  int // bitset words per slot
	grs    []gr.GR
	keys   []string // keys[slot] = grs[slot].Key(), shared with byKey
	have   []uint64 // slot's shard bitset at have[slot*words:][:words]
	all    []uint64 // the bitset of a slot every shard tracks
	// lwr[s][slot], lw, hom and r are shard s's counts for the slot, zero
	// where have says the shard does not track it. hom and r are nil
	// unless the metric reads them.
	lwr, lw, hom, r [][]int32
	handle          [][]int32 // handle[s][slot]: shard s's handle, −1 for none
	mirror          []handleTable
	byKey           map[string]int32
	capUntil        [][]int64
	routed          []int64
}

// handleTable maps one worker's pool handles (dense interned GR ids) to
// union slots: cand[h] is the slot handle h names, −1 where the shard does
// not track one. seen stamps the handles of the reply being applied, to
// refuse a repeat.
type handleTable struct {
	cand  []int32
	seen  []uint32
	stamp uint32
}

func newUnionTable(shards int, m metrics.Metric) *unionTable {
	t := &unionTable{
		shards:   shards,
		words:    (shards + 63) / 64,
		lwr:      make([][]int32, shards),
		lw:       make([][]int32, shards),
		handle:   make([][]int32, shards),
		mirror:   make([]handleTable, shards),
		byKey:    make(map[string]int32),
		capUntil: make([][]int64, shards),
		routed:   make([]int64, shards),
	}
	t.all = make([]uint64, t.words)
	for s := range shards {
		t.all[s>>6] |= 1 << (s & 63)
	}
	if m.NeedsHom {
		t.hom = make([][]int32, shards)
	}
	if m.NeedsR {
		t.r = make([][]int32, shards)
	}
	return t
}

// len returns the number of live entries.
func (t *unionTable) len() int { return len(t.grs) }

// has reports whether shard s's counts for slot are known.
func (t *unionTable) has(slot int32, s int) bool {
	return t.have[int(slot)*t.words+s>>6]&(1<<(s&63)) != 0
}

// enter records that shard s tracks g, creating g's entry on first sight,
// and returns its slot; the caller then sets the shard's counts. A handle
// h ≥ 0 binds the slot to shard s's handle h, for which mirror[s] must
// already have room. g is untrusted worker output: a GR that is malformed
// for the schema, or that shard s already tracks, is an error and leaves
// the table unchanged.
func (t *unionTable) enter(schema *graph.Schema, g gr.GR, s int, h int32) (int32, error) {
	if err := validGR(schema, g); err != nil {
		return -1, err
	}
	key := g.Key()
	slot, ok := t.byKey[key]
	if !ok {
		slot = int32(len(t.grs))
		t.byKey[key] = slot
		t.grs = append(t.grs, g)
		t.keys = append(t.keys, key)
		for range t.words {
			t.have = append(t.have, 0)
		}
		for i := range t.shards {
			t.lwr[i] = append(t.lwr[i], 0)
			t.lw[i] = append(t.lw[i], 0)
			if t.hom != nil {
				t.hom[i] = append(t.hom[i], 0)
			}
			if t.r != nil {
				t.r[i] = append(t.r[i], 0)
			}
			t.handle[i] = append(t.handle[i], -1)
			t.capUntil[i] = append(t.capUntil[i], -1)
		}
	} else if t.has(slot, s) {
		return -1, fmt.Errorf("GR %v already tracked by shard %d", g, s)
	}
	t.have[int(slot)*t.words+s>>6] |= 1 << (s & 63)
	if h >= 0 {
		t.handle[s][slot] = h
		t.mirror[s].cand[h] = slot
	}
	return slot, nil
}

// set writes shard s's counts for slot into the columns the metric reads.
func (t *unionTable) set(slot int32, s int, c metrics.Counts) {
	t.lwr[s][slot] = int32(c.LWR)
	t.lw[s][slot] = int32(c.LW)
	if t.hom != nil {
		t.hom[s][slot] = int32(c.Hom)
	}
	if t.r != nil {
		t.r[s][slot] = int32(c.R)
	}
}

// drop forgets that shard s tracks slot, unbinding its handle, and frees
// the slot once no shard tracks it: the last slot's entry moves into the
// hole, and every shard's mirror of the moved entry follows it.
func (t *unionTable) drop(slot int32, s int) {
	base := int(slot) * t.words
	t.have[base+s>>6] &^= 1 << (s & 63)
	t.set(slot, s, metrics.Counts{})
	if h := t.handle[s][slot]; h >= 0 {
		t.mirror[s].cand[h] = -1
		t.handle[s][slot] = -1
	}
	for _, w := range t.have[base : base+t.words] {
		if w != 0 {
			return
		}
	}
	delete(t.byKey, t.keys[slot])
	last := int32(len(t.grs) - 1)
	if slot != last {
		t.grs[slot], t.keys[slot] = t.grs[last], t.keys[last]
		t.byKey[t.keys[slot]] = slot
		copy(t.have[base:base+t.words], t.have[int(last)*t.words:])
		for i := range t.shards {
			t.lwr[i][slot], t.lw[i][slot] = t.lwr[i][last], t.lw[i][last]
			if t.hom != nil {
				t.hom[i][slot] = t.hom[i][last]
			}
			if t.r != nil {
				t.r[i][slot] = t.r[i][last]
			}
			t.capUntil[i][slot] = t.capUntil[i][last]
			h := t.handle[i][last]
			t.handle[i][slot] = h
			if h >= 0 {
				t.mirror[i].cand[h] = slot
			}
		}
	}
	t.grs[last], t.keys[last] = gr.GR{}, ""
	t.grs, t.keys = t.grs[:last], t.keys[:last]
	t.have = t.have[:int(last)*t.words]
	for i := range t.shards {
		t.lwr[i], t.lw[i] = t.lwr[i][:last], t.lw[i][:last]
		if t.hom != nil {
			t.hom[i] = t.hom[i][:last]
		}
		if t.r != nil {
			t.r[i] = t.r[i][:last]
		}
		t.handle[i] = t.handle[i][:last]
		t.capUntil[i] = t.capUntil[i][:last]
	}
}

// sketchCap returns min(limit, sk.minSingle(g)) for the GR in slot, where
// sk is shard s's sketch and limit is shardMinSupp−1 on every call: the
// most of the GR's support the shard can hold when it does not track the
// GR. An edge routed to the shard moves each sketch count by at most one,
// so a minimum m ≥ limit read after r routed edges stays at or above limit
// until r+m−limit have been routed. Until then the cap is limit, and
// capUntil[s][slot] saves reading the GR and the sketch.
func (t *unionTable) sketchCap(s int, slot int32, sk *ShardSketch, limit int) int {
	until := &t.capUntil[s][slot]
	if t.routed[s] <= *until {
		return limit
	}
	m := sk.minSingle(t.grs[slot])
	if m < limit {
		*until = -1
		return m
	}
	*until = t.routed[s] + int64(m-limit)
	return limit
}

// known sums the LWR, LW, Hom and R counts of every shard that tracks
// slot; a shard that does not track the slot holds zero counts. The sums
// come back as four ints, not a metrics.Counts: the compiler keeps a
// five-field struct in memory, and summing into one stalled on every
// store-to-load in the merge's loops.
func (t *unionTable) known(slot int32) (lwr, lw, hom, r int) {
	for s := range t.shards {
		lwr += int(t.lwr[s][slot])
		lw += int(t.lw[s][slot])
	}
	for _, col := range t.hom {
		hom += int(col[slot])
	}
	for _, col := range t.r {
		r += int(col[slot])
	}
	return lwr, lw, hom, r
}

// tracked reports whether every shard tracks slot.
func (t *unionTable) tracked(slot int32) bool {
	for w, word := range t.have[int(slot)*t.words:][:t.words] {
		if word != t.all[w] {
			return false
		}
	}
	return true
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
// builder (internal/rpc.Fleet) that hands every WorkerSpec to a shardd
// daemon. When the builder is a RebuildingBuilder, workers are wrapped in
// replay supervisors and the run survives worker loss (see FleetHealth).
// Close releases the workers.
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

	pool := newUnionTable(len(sc.workers), sc.opt.Metric)
	for i, offers := range pools {
		for j, cand := range offers {
			slot, err := pool.enter(sc.schema, cand.GR, i, -1)
			if err != nil {
				return nil, fmt.Errorf("core: shard %d offer %d: %w", i, j, err)
			}
			pool.set(slot, i, cand.Counts)
		}
	}

	var merge shardMerge
	topList, err := merge.run(sc.opt, sc.plan.ShardMinSupp, sc.totalEdges, sc.workers, sc.sketches, pool, sc.schema, &stats)
	if err != nil {
		return nil, err
	}
	stats.Duration = time.Since(start)
	return &Result{TopK: topList, Stats: stats, Options: sc.opt, TotalEdges: sc.totalEdges}, nil
}

// shardMerge is the coordinator merge with its scratch: the sharded
// incremental engine keeps one and reuses every slice and the blocker map
// across batches. items lists the slots waiting for round-2 counts; the
// k-th one's per-shard indexes into the fetched counts are
// fetch[k*n:(k+1)*n] for n shards, −1 where none was fetched. Fetched
// counts live beside the pool, never in it. After run, bound, fetchTime
// and rank hold the times of its three phases.
type shardMerge struct {
	items     []int32
	caps      []int
	needs     [][]gr.GR
	fetch     []int32
	fetched   [][]metrics.Counts
	fetchErrs []error
	survivors []gr.Scored
	bm        *blockerMap

	bound, fetchTime, rank time.Duration
}

// run re-scores every pool candidate from its summed per-shard counts and
// applies Definition 5 conditions (1)-(3) globally. It is shared by the
// batch coordinator and the sharded incremental engine.
//
// Round-2 bounding: a shard that did not offer a candidate holds at most
// t−1 = shardMinSupp−1 of its support (the offer round enumerates every GR
// at or above that threshold; the OfferBound filter only ever drops
// globally non-qualifying GRs, for which any rejection is correct), and at
// most its sketch's smallest singleton count for the candidate's
// conditions. A candidate whose known supports plus those caps cannot reach
// MinSupp fails condition (1) without a counting scan; survivors' missing
// counts are fetched in one batched Counts call per worker. Stats records
// the (candidate, shard) fetch volume (ExactCountRequests).
//
// A candidate every shard tracks is scored in the bound pass; the rest
// are scored once their counts arrive. Survivors go, with the reset
// blocker map, to rankCandidates, which applies conditions (2) and (3).
// The pool is scanned in slot order, and the result does not depend on it:
// rankCandidates orders by generality level and gr.Less breaks every rank
// tie by key. Each shard's round-2 request lists its GRs in slot order,
// which the sequence of offers and deltas fixes, so the requests are
// deterministic too.
func (mg *shardMerge) run(opt Options, shardMinSupp, totalEdges int, workers []ShardWorker, sketches []ShardSketch, pool *unionTable, schema *graph.Schema, stats *Stats) ([]gr.Scored, error) {
	// Candidates keeps its documented meaning — GRs meeting both *global*
	// thresholds — so it is overwritten rather than added to the
	// offer-round counters (work done at the relaxed shard thresholds), as
	// the single-store assemble does.
	survivors := mg.survivors[:0]
	consider := func(slot int32, lwr, lw, hom, r int) {
		c := metrics.Counts{LWR: lwr, LW: lw, Hom: hom, R: r, E: totalEdges}
		score := opt.Metric.Score(c)
		if lwr >= opt.MinSupp && score >= opt.MinScore {
			survivors = append(survivors, gr.Scored{GR: pool.grs[slot], Supp: lwr, Score: score, Conf: metrics.Conf(c)})
		}
	}

	// Round-2 bound pass: pure arithmetic over known counts and sketches.
	t0 := time.Now()
	n := len(workers)
	if len(mg.needs) != n {
		mg.caps = make([]int, n)
		mg.needs = make([][]gr.GR, n)
		mg.fetched = make([][]metrics.Counts, n)
		mg.fetchErrs = make([]error, n)
	}
	caps, needs := mg.caps, mg.needs
	for s := range needs {
		needs[s] = needs[s][:0]
	}
	items, fetch := mg.items[:0], mg.fetch[:0]
	words := pool.words
	for slot := range int32(pool.len()) {
		if pool.tracked(slot) {
			if lwr, lw, hom, r := pool.known(slot); lwr >= opt.MinSupp {
				consider(slot, lwr, lw, hom, r)
			}
			continue
		}
		bound := 0
		have := pool.have[int(slot)*words:][:words]
		for s := 0; s < n; s++ {
			bound += int(pool.lwr[s][slot])
			if have[s>>6]&(1<<(s&63)) == 0 {
				caps[s] = pool.sketchCap(s, slot, &sketches[s], shardMinSupp-1)
				bound += caps[s]
			}
		}
		if bound < opt.MinSupp {
			continue // cannot satisfy condition (1); skip the verify round
		}
		g := &pool.grs[slot]
		items = append(items, slot)
		for s := 0; s < n; s++ {
			// A shard whose sketch proves it cannot contribute to any
			// count the metric reads is taken as zero without a fetch
			// (fetch index stays -1). A positive cap already proves every
			// condition's singleton count positive, so only a zero cap
			// asks the sketch.
			f := int32(-1)
			if have[s>>6]&(1<<(s&63)) == 0 && (caps[s] > 0 || sketches[s].contributes(opt.Metric, *g)) {
				f = int32(len(needs[s]))
				needs[s] = append(needs[s], *g)
				stats.ExactCountRequests++
			}
			fetch = append(fetch, f)
		}
	}
	mg.items, mg.fetch = items, fetch
	t1 := time.Now()
	mg.bound = t1.Sub(t0)

	// Round-2 fetch pass: one batched exact-count query per worker.
	fetched, fetchErrs := mg.fetched, mg.fetchErrs
	clear(fetched)
	clear(fetchErrs)
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
	t2 := time.Now()
	mg.fetchTime = t2.Sub(t1)
	for s, err := range fetchErrs {
		if err != nil {
			return nil, fmt.Errorf("core: shard %d exact counts: %w", s, err)
		}
		if len(needs[s]) > 0 && len(fetched[s]) != len(needs[s]) {
			return nil, fmt.Errorf("core: shard %d returned %d counts for %d queries", s, len(fetched[s]), len(needs[s]))
		}
	}

	// Re-score the rest from the known plus the fetched counts.
	for k, slot := range items {
		lwr, lw, hom, r := pool.known(slot)
		for s, f := range fetch[k*n : (k+1)*n] {
			if f < 0 {
				continue // tracked, or provably zero and never fetched
			}
			per := &fetched[s][f]
			lwr += per.LWR
			lw += per.LW
			hom += per.Hom
			r += per.R
		}
		consider(slot, lwr, lw, hom, r)
	}
	mg.survivors = survivors
	clear(fetched) // the workers' replies are not scratch; let them go
	stats.Candidates = int64(len(survivors))
	if mg.bm == nil {
		mg.bm = newBlockerMap(intern.NewDict(intern.NewLayout(schema)))
	}
	mg.bm.reset()
	top := rankCandidates(survivors, opt.K, !opt.NoGeneralityFilter, mg.bm, stats)
	mg.rank = time.Since(t2)
	return top, nil
}
