package grminer

import (
	"fmt"

	"grminer/internal/core"
	"grminer/internal/metrics"
	"grminer/internal/rpc"
	"grminer/internal/store"
)

// EngineMode selects what kind of engine Open constructs: a one-shot static
// miner, or a long-lived incremental engine that maintains the top-k while
// edge batches stream in.
type EngineMode int

const (
	// ModeStatic (the zero value) opens a one-shot engine: Mine runs the
	// batch miner over the input as loaded and the engine holds no mutable
	// state. ApplyBatch is refused.
	ModeStatic EngineMode = iota
	// ModeIncremental opens a fully dynamic engine seeded with one mine:
	// ApplyBatch ingests mixed insert/delete batches and Result always
	// reflects the surviving edge set exactly. The engine owns the graph.
	ModeIncremental
)

// EngineConfig is the single construction surface for every engine this
// package can build:
//
//	mode       ×  topology   =  engine
//	---------     ---------     ------
//	static        local         one-shot batch mine
//	static        sharded       ShardCoordinator
//	static        remote        ShardCoordinator over shardd
//	incremental   local         Incremental
//	incremental   sharded       IncrementalSharded
//	incremental   remote        IncrementalSharded over shardd
//
// Topology is selected by the fields, not an enum: a non-empty Workers list
// is remote (Shard.Shards defaults to len(Workers); a larger explicit count
// multiplexes shards onto daemon slots, a smaller one is rejected — see
// ErrShardWorkerMismatch), Shard.Shards > 0 alone is in-process sharded,
// and neither is single-store local.
type EngineConfig struct {
	// Mode selects static one-shot versus incremental (default static).
	Mode EngineMode
	// Options are the mining thresholds and execution knobs.
	Options Options
	// Shard lays out the sharded topologies (Shards > 0 enables them).
	// With Workers set, Shards defaults to len(Workers); an explicit
	// Shards > len(Workers) places shard i on Workers[i mod n], using the
	// slot capacity each daemon advertises (shardd -shards N).
	Shard ShardOptions
	// Workers lists shardd daemon addresses ("host:port"); non-empty
	// selects the remote topology.
	Workers []string
	// Standbys lists spare shardd addresses (remote topology only). They
	// take no shards at construction; when a primary worker is lost
	// mid-run, the replacement is rebuilt onto the lost shard's home
	// daemon if it answers, else a standby, else a live multiplexed peer
	// with a spare slot — and the routed-batch log is replayed so results
	// are unchanged. FleetHealth reports the failover counters.
	Standbys []string
	// Auto applies the size-aware planner (core.PlanFor) before
	// construction: zero-valued execution knobs in Options (Parallelism,
	// MaxL/MaxW/MaxR) are filled from the input size and Procs (0 = all
	// cores); the CLIs' -auto flag sets it.
	Auto bool
	// Procs caps the CPU budget Auto plans for (0 = all cores).
	Procs int
}

// ErrShardWorkerMismatch reports an explicit shard count smaller than the
// remote worker address list: daemons that would never receive a shard are
// almost certainly a mistyped flag, so the contradiction is rejected (leave
// Shard.Shards 0 to default to one shard per worker, or raise it past
// len(Workers) to multiplex). CLIs unwrap it with errors.As to name the
// flags involved.
type ErrShardWorkerMismatch struct {
	// Shards is the explicit shard count requested.
	Shards int
	// Workers is the number of worker addresses given.
	Workers int
}

func (e *ErrShardWorkerMismatch) Error() string {
	return fmt.Sprintf("grminer: %d shards requested but %d worker addresses given (at least one shard per worker; raise the shard count to multiplex)", e.Shards, e.Workers)
}

// Engine is an opened mining engine: one of the six mode × topology
// variants of EngineConfig, behind one method set. Static engines answer
// Mine; incremental engines additionally ingest with ApplyBatch and track
// the maintained top-k in Result. The typed accessors (Incremental,
// IncrementalSharded, Coordinator) expose the underlying variant for
// callers that need its full surface.
type Engine struct {
	mode    EngineMode
	g       *Graph
	opt     Options // options as configured (post-Auto); inner engines normalize
	plan    Plan
	planned bool

	// Exactly one of these is set, by mode × topology.
	st    *Store
	coord *ShardCoordinator
	inc   *Incremental
	shinc *IncrementalSharded

	last *Result // static modes: the last Mine
}

// Open validates cfg, builds the selected engine over g, and returns it.
// Incremental engines own g (batches mutate it); static engines only read
// it during Mine. Callers of remote topologies must Close the engine to
// release the worker connections (Close is a no-op elsewhere, so
// uniformly deferring it is safe).
func Open(g *Graph, cfg EngineConfig) (*Engine, error) {
	cfg, err := resolveTopology(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Mode == ModeStatic && len(cfg.Workers) == 0 && cfg.Shard.Shards == 0 {
		// Static local plans from the built store; every other variant
		// plans from the graph's size features.
		return OpenStore(store.Build(g), cfg)
	}
	e := &Engine{mode: cfg.Mode, g: g, opt: cfg.Options}
	if cfg.Auto {
		e.plan = core.PlanForSize(g.NumEdges(), g.Schema(), cfg.Procs, e.opt)
		e.opt = e.plan.Apply(e.opt)
		e.planned = true
	}
	switch {
	case cfg.Mode == ModeIncremental && len(cfg.Workers) > 0:
		e.shinc, err = core.NewIncrementalShardedFrom(g, e.opt, cfg.Shard, cfg.fleet())
	case cfg.Mode == ModeIncremental && cfg.Shard.Shards > 0:
		e.shinc, err = core.NewIncrementalSharded(g, e.opt, cfg.Shard)
	case cfg.Mode == ModeIncremental:
		e.inc, err = core.NewIncremental(g, e.opt)
	case len(cfg.Workers) > 0:
		e.coord, err = core.NewShardCoordinatorFrom(g, e.opt, cfg.Shard, cfg.fleet())
	default:
		e.coord, err = core.NewShardCoordinator(g, e.opt, cfg.Shard)
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// OpenStore is Open over a pre-built store; only the static local variant
// supports it (the incremental and sharded engines build their own stores
// from the graph they own).
func OpenStore(st *Store, cfg EngineConfig) (*Engine, error) {
	cfg, err := resolveTopology(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Mode != ModeStatic || len(cfg.Workers) > 0 || cfg.Shard.Shards > 0 {
		return nil, fmt.Errorf("grminer: OpenStore supports only the static local engine; use Open for mode %d with %d shards / %d workers",
			cfg.Mode, cfg.Shard.Shards, len(cfg.Workers))
	}
	e := &Engine{mode: ModeStatic, g: st.Graph(), opt: cfg.Options, st: st}
	if cfg.Auto {
		e.plan = core.PlanFor(st, cfg.Procs, e.opt)
		e.opt = e.plan.Apply(e.opt)
		e.planned = true
	}
	return e, nil
}

// resolveTopology fills the shard count from the worker list and rejects an
// explicit count that would idle listed workers with a typed
// *ErrShardWorkerMismatch. Counts beyond the worker list multiplex; the
// fleet validates them against each daemon's advertised slot capacity at
// build time.
func resolveTopology(cfg EngineConfig) (EngineConfig, error) {
	if len(cfg.Workers) == 0 {
		return cfg, nil
	}
	if cfg.Shard.Shards == 0 {
		cfg.Shard.Shards = len(cfg.Workers)
	}
	if cfg.Shard.Shards < len(cfg.Workers) {
		return cfg, &ErrShardWorkerMismatch{Shards: cfg.Shard.Shards, Workers: len(cfg.Workers)}
	}
	return cfg, nil
}

// fleet builds the remote worker fleet for the configured topology.
func (cfg EngineConfig) fleet() *rpc.Fleet {
	return rpc.NewFleet(cfg.Workers, rpc.FleetOptions{Standbys: cfg.Standbys})
}

// Mode returns the engine's mode.
func (e *Engine) Mode() EngineMode { return e.mode }

// Graph returns the engine's network. Incremental engines own and mutate
// it on ApplyBatch; callers must not read it concurrently with ingestion.
func (e *Engine) Graph() *Graph { return e.g }

// Mine returns the engine's top-k. Static engines run the batch miner
// (repeat calls re-mine); incremental engines return the maintained result,
// which is already exact for the surviving edge set.
func (e *Engine) Mine() (*Result, error) {
	switch {
	case e.inc != nil:
		return e.inc.Result(), nil
	case e.shinc != nil:
		return e.shinc.Result(), nil
	case e.coord != nil:
		res, err := e.coord.Mine()
		if err != nil {
			return nil, err
		}
		e.last = res
		return res, nil
	default:
		res, err := core.MineStore(e.st, e.opt)
		if err != nil {
			return nil, err
		}
		e.last = res
		return res, nil
	}
}

// ApplyBatch ingests one mixed batch of insertions and deletions through an
// incremental engine and returns the updated top-k. Malformed batches are
// rejected atomically — the engine and its graph are untouched. Static
// engines refuse it.
func (e *Engine) ApplyBatch(b Batch) (*Result, IncStats, error) {
	switch {
	case e.inc != nil:
		return e.inc.ApplyBatch(b)
	case e.shinc != nil:
		return e.shinc.ApplyBatch(b)
	default:
		return nil, IncStats{}, fmt.Errorf("grminer: static engine cannot ingest batches; Open with Mode: ModeIncremental")
	}
}

// Result returns the engine's current top-k: the maintained result for
// incremental engines, the last Mine for static ones (nil before it).
func (e *Engine) Result() *Result {
	switch {
	case e.inc != nil:
		return e.inc.Result()
	case e.shinc != nil:
		return e.shinc.Result()
	default:
		return e.last
	}
}

// Options returns the engine's effective options: the inner engine's
// normalized settings where one exists, the configured (post-Auto) options
// for a static local engine that has not mined yet.
func (e *Engine) Options() Options {
	switch {
	case e.inc != nil:
		return e.inc.Options()
	case e.shinc != nil:
		return e.shinc.Options()
	case e.coord != nil:
		return e.coord.Options()
	case e.last != nil:
		return e.last.Options
	default:
		return e.opt
	}
}

// Cumulative returns lifetime ingest totals (zero for static engines).
func (e *Engine) Cumulative() IncStats {
	switch {
	case e.inc != nil:
		return e.inc.Cumulative()
	case e.shinc != nil:
		return e.shinc.Cumulative()
	default:
		return IncStats{}
	}
}

// Explain returns the exact tracked counts of q when the engine maintains
// them (the single-store incremental engine's pool; every maintained top-k
// entry is pool-backed). Other variants report false and callers fall back
// to a full-scan EvalGR.
func (e *Engine) Explain(q GR) (Counts, bool) {
	if e.inc != nil {
		return e.inc.Explain(q)
	}
	return metrics.Counts{}, false
}

// AutoPlan returns the plan Auto selected and whether planning ran.
func (e *Engine) AutoPlan() (Plan, bool) { return e.plan, e.planned }

// ShardPlan returns the sharded layout and whether the engine is sharded.
func (e *Engine) ShardPlan() (ShardPlan, bool) {
	switch {
	case e.coord != nil:
		return e.coord.Plan(), true
	case e.shinc != nil:
		return e.shinc.Plan(), true
	default:
		return ShardPlan{}, false
	}
}

// FleetHealth reports per-shard worker liveness and failover counters
// (retries, replacements, replayed batches) for sharded engines; nil for
// local single-store engines. grminerd surfaces it in GET /v1/status.
func (e *Engine) FleetHealth() []WorkerHealth {
	switch {
	case e.coord != nil:
		return e.coord.FleetHealth()
	case e.shinc != nil:
		return e.shinc.FleetHealth()
	default:
		return nil
	}
}

// Incremental returns the underlying single-store incremental engine, or
// nil for other variants.
func (e *Engine) Incremental() *Incremental { return e.inc }

// IncrementalSharded returns the underlying sharded incremental engine
// (in-process or remote), or nil for other variants.
func (e *Engine) IncrementalSharded() *IncrementalSharded { return e.shinc }

// Coordinator returns the underlying static shard coordinator (in-process
// or remote), or nil for other variants.
func (e *Engine) Coordinator() *ShardCoordinator { return e.coord }

// Store returns the pre-built store of a static local engine, or nil.
func (e *Engine) Store() *Store { return e.st }

// Close releases remote worker connections; it is a no-op for local
// engines, so callers can defer it unconditionally.
func (e *Engine) Close() error {
	switch {
	case e.coord != nil:
		return e.coord.Close()
	case e.shinc != nil:
		return e.shinc.Close()
	default:
		return nil
	}
}
