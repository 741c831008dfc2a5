package core

import (
	"errors"
	"fmt"
	"sync"

	"grminer/internal/gr"
	"grminer/internal/metrics"
)

// workerLost reports whether err marks permanent loss of a worker's state.
// The transport layer (internal/rpc) tags its failures with a
// WorkerLost() bool method; the anonymous interface keeps core free of an
// rpc import (rpc imports core, never the reverse). In-band operation
// errors — a rejected batch, a bad spec — do not carry the tag: the worker
// is alive and its state intact, so failover must not engage.
func workerLost(err error) bool {
	var lost interface{ WorkerLost() bool }
	return errors.As(err, &lost) && lost.WorkerLost()
}

// workerAddr names the daemon hosting a worker, for health reporting.
func workerAddr(w ShardWorker) string {
	if a, ok := w.(interface{ Addr() string }); ok {
		return a.Addr()
	}
	return ""
}

// WorkerHealth is one shard's failover record, reported by FleetHealth on
// the sharded engines and surfaced in grminerd's GET /v1/status.
type WorkerHealth struct {
	// Shard is the shard index; Addr the daemon address hosting it ("" for
	// an in-process worker).
	Shard int
	Addr  string
	// Live is false only when the shard is down with no replacement — the
	// engine is broken and every subsequent call will fail.
	Live bool
	// Recovering is true while a replacement is being rebuilt and replayed
	// for this shard; Live still holds the pre-loss value until the
	// recovery resolves.
	Recovering bool
	// Retries counts operations re-issued after a loss, Replacements
	// successful worker rebuilds, and ReplayedBatches the routed batches
	// replayed into replacements.
	Retries         int64
	Replacements    int64
	ReplayedBatches int64
	// CheckpointEpoch counts checkpoints taken (each truncates the replay
	// log); LogSuffixLen is the current log length — the batches a recovery
	// right now would replay, at most the checkpoint interval once the
	// first checkpoint has landed. CheckpointFailures counts checkpoint
	// attempts that failed; each leaves the log untruncated, so a rising
	// count is why LogSuffixLen creeps past the interval.
	CheckpointEpoch    int64
	LogSuffixLen       int
	CheckpointFailures int64
	// LastError is the most recent worker-loss cause ("" if none ever).
	LastError string
}

// supervisor wraps one shard's ShardWorker with the failover state
// machine. It keeps the shard's self-contained WorkerSpec, the latest
// checkpoint blob, and the routed batches acknowledged since that
// checkpoint; when an operation fails with worker loss it places a
// replacement through the RebuildingBuilder and reproduces the lost state
// in one of two ways — with a blob, RebuildRestore it and replay the log
// suffix; without one, Rebuild from the spec, re-seed if the shard was
// seeded, and replay the whole log — then re-issues the failed operation
// once, and the run continues as if nothing happened.
//
// Replay is exact, not approximate:
//
//   - the checkpoint blob carries the worker's live edges, intern
//     dictionary and maintained pool, so a restored worker answers every
//     later request as the one that wrote the blob would;
//   - without a blob, the spec rebuilds the shard store bit-for-bit (the
//     partitioner is deterministic and insertion-stable, and the spec
//     carries the shard's own edges) and the maintained pool is a pure
//     function of the store (re-seeded by Offer(nil) exactly as at
//     construction);
//   - batches apply atomically (validated wholesale before any mutation),
//     so a batch in flight at the moment of loss was either applied to
//     state that no longer exists or never applied — both cases reduce to
//     "not applied", and re-issuing it after replay yields the exact
//     pre-loss state plus the batch.
//
// Every interval acknowledged batches the supervisor pulls a fresh blob
// and drops the log prefix it covers, so the log — and with it recovery
// latency and coordinator memory — is bounded by the interval instead of
// the stream length (DESIGN.md §9).
//
// One recovery is attempted per failed operation: Rebuild already retries
// transient dial failures with capped backoff and falls through standbys
// and multiplexed peers, so a second loss on the freshly replayed worker
// means the fleet is genuinely unable to host the shard — that error
// escapes to the caller (and poisons an incremental engine, exactly as a
// loss with no builder support would).
type supervisor struct {
	spec     WorkerSpec
	rb       RebuildingBuilder
	interval int // checkpoint every N acked batches; ≤ 0 disables

	mu     sync.Mutex
	inner  ShardWorker
	seeded bool    // Offer(nil) ran; replacements must re-seed the pool
	chk    []byte  // latest checkpoint blob (nil until one is taken)
	log    []Batch // acked routed batches since the checkpoint, in order
	health WorkerHealth
}

// newSupervisor wraps a freshly built worker. The coordinator serializes
// operations per worker (the ShardWorker contract), so the mutex only
// guards against FleetHealth readers — including during a recovery, which
// deliberately runs rebuild and replay outside the lock so health
// snapshots (and the /v1/status endpoint built on them) never stall behind
// a multi-second rebuild.
func newSupervisor(spec WorkerSpec, rb RebuildingBuilder, w ShardWorker, interval int) *supervisor {
	return &supervisor{
		spec:     spec,
		rb:       rb,
		interval: interval,
		inner:    w,
		health:   WorkerHealth{Shard: spec.Index, Addr: workerAddr(w), Live: true},
	}
}

func (s *supervisor) worker() ShardWorker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner
}

// NumEdges reports the inner worker's view; it is local bookkeeping and
// never triggers failover.
func (s *supervisor) NumEdges() int { return s.worker().NumEdges() }

// Offer runs the round-1 offer mine, recovering once on worker loss. A
// successful nil-bound offer (the incremental seed) is recorded so
// replacements re-seed their maintained pools.
func (s *supervisor) Offer(bound *OfferBound) ([]ShardCandidate, Stats, error) {
	offers, stats, err := s.worker().Offer(bound)
	if err != nil && workerLost(err) {
		if rerr := s.recover(err); rerr != nil {
			return nil, Stats{}, rerr
		}
		offers, stats, err = s.worker().Offer(bound)
	}
	if err == nil && bound == nil {
		s.mu.Lock()
		s.seeded = true
		s.mu.Unlock()
	}
	return offers, stats, err
}

// Counts answers the batched round-2 query, recovering once on worker loss.
func (s *supervisor) Counts(grs []gr.GR) ([]metrics.Counts, error) {
	counts, err := s.worker().Counts(grs)
	if err != nil && workerLost(err) {
		if rerr := s.recover(err); rerr != nil {
			return nil, rerr
		}
		counts, err = s.worker().Counts(grs)
	}
	return counts, err
}

// Ingest applies a routed batch, recovering once on worker loss. The batch
// joins the replay log only after the worker acknowledged it; every
// interval acked batches the worker is checkpointed and the log truncated
// to empty.
func (s *supervisor) Ingest(batch Batch) (IngestReply, error) {
	rep, err := s.worker().Ingest(batch)
	if err != nil && workerLost(err) {
		if rerr := s.recover(err); rerr != nil {
			return IngestReply{}, rerr
		}
		rep, err = s.worker().Ingest(batch)
	}
	if err == nil {
		s.mu.Lock()
		s.log = append(s.log, batch)
		due := s.interval > 0 && len(s.log) >= s.interval
		w := s.inner
		s.mu.Unlock()
		if due {
			s.checkpoint(w)
		}
	}
	return rep, err
}

// checkpoint pulls a full-state blob from w and truncates the replay log
// it covers. Failure is deliberately non-fatal: the batch was acknowledged
// and the engine's answer is unaffected, so the supervisor counts the
// failure in WorkerHealth.CheckpointFailures, keeps the old blob + longer
// log (still exact, just slower to recover) and tries again after the next
// acknowledged batch; if the worker actually died, the next operation
// discovers it and engages normal failover with the state we kept.
func (s *supervisor) checkpoint(w ShardWorker) {
	blob, err := w.Checkpoint()
	if err != nil {
		s.mu.Lock()
		s.health.CheckpointFailures++
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	s.chk = blob
	s.log = nil
	s.health.CheckpointEpoch++
	s.mu.Unlock()
}

// Checkpoint forwards to the current worker; the supervisor's own
// checkpoints go through checkpoint, which also truncates the log.
func (s *supervisor) Checkpoint() ([]byte, error) { return s.worker().Checkpoint() }

// Close releases the current worker.
func (s *supervisor) Close() error { return s.worker().Close() }

// recover places a replacement worker and reproduces the lost shard state
// on it. If the failed operation was itself a seeding Offer(nil) on a
// seeded shard, the replacement is seeded by the replay and again by the
// re-issue; the second seed recomputes the identical pool (the pool is a
// pure function of the store; pinned by TestDoubleSeedIdempotent).
//
// The lock is held only to read and swap state, never across the rebuild
// and replay themselves: FleetHealth keeps answering during a recovery,
// reporting the shard as Recovering. On failure the shard is marked down
// and the original loss is wrapped so the caller sees both what died and
// why no replacement could take over. s.inner is left pointing at the dead
// worker (Close on a lost worker is safe and idempotent) so a later Close
// of the deployment still releases whatever is left.
func (s *supervisor) recover(cause error) error {
	s.mu.Lock()
	s.health.LastError = cause.Error()
	s.health.Recovering = true
	old := s.inner
	chk := s.chk
	seeded := s.seeded
	// The coordinator serializes operations per worker, so no writer can
	// touch s.log while this recovery is in flight; reading the slice
	// header under the lock is enough.
	log := s.log
	s.mu.Unlock()

	if old != nil {
		old.Close() // best effort; the transport is already gone
	}
	w, err := s.rebuildReplacement(chk, seeded, log)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.health.Recovering = false
	if err != nil {
		s.health.Live = false
		return fmt.Errorf("core: shard %d %w (lost: %v)", s.spec.Index, err, cause)
	}
	s.inner = w
	s.health.Live = true
	s.health.Addr = workerAddr(w)
	s.health.Replacements++
	s.health.Retries++
	s.health.ReplayedBatches += int64(len(log))
	return nil
}

// rebuildReplacement places a replacement worker and reproduces the lost
// state on it: RebuildRestore the checkpoint blob when one exists, or —
// before any checkpoint — Rebuild from the spec and re-seed if the shard
// was seeded; then replay the logged batches in ingest order. Runs without
// s.mu held. With a blob the log prefix it covers is gone, so a failed
// restore cannot fall back to full replay and the recovery fails closed.
func (s *supervisor) rebuildReplacement(chk []byte, seeded bool, log []Batch) (ShardWorker, error) {
	var w ShardWorker
	var err error
	if chk != nil {
		if w, err = s.rb.RebuildRestore(s.spec, chk); err != nil {
			return nil, fmt.Errorf("worker lost and checkpoint restore failed: %w", err)
		}
	} else {
		if w, err = s.rb.Rebuild(s.spec); err != nil {
			return nil, fmt.Errorf("worker lost and no replacement available: %w", err)
		}
		if seeded {
			if _, _, err := w.Offer(nil); err != nil {
				w.Close()
				return nil, fmt.Errorf("replay into replacement failed: re-seed: %w", err)
			}
		}
	}
	for i, b := range log {
		if _, err := w.Ingest(b); err != nil {
			w.Close()
			return nil, fmt.Errorf("replay into replacement failed: batch %d/%d: %w", i+1, len(log), err)
		}
	}
	return w, nil
}

// healthSnapshot copies the current failover record.
func (s *supervisor) healthSnapshot() WorkerHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.health
	h.LogSuffixLen = len(s.log)
	return h
}

// superviseWorkers wraps each worker in a replay supervisor when the
// builder can rebuild replacements; other builders (in-process, plain
// WorkerBuilder funcs) are left untouched — no failover, no log memory.
// interval is the checkpoint cadence in acked batches (≤ 0 disables
// checkpointing).
func superviseWorkers(build FleetBuilder, specs []WorkerSpec, workers []ShardWorker, interval int) {
	rb, ok := build.(RebuildingBuilder)
	if !ok {
		return
	}
	for i, w := range workers {
		workers[i] = newSupervisor(specs[i], rb, w, interval)
	}
}

// fleetHealth reports per-shard health for a deployment's workers.
// Unsupervised workers report live with zero counters: they have no
// failover machinery, and their liveness is only ever disproven by the
// next operation failing.
func fleetHealth(workers []ShardWorker) []WorkerHealth {
	hs := make([]WorkerHealth, len(workers))
	for i, w := range workers {
		if sup, ok := w.(*supervisor); ok {
			hs[i] = sup.healthSnapshot()
			continue
		}
		hs[i] = WorkerHealth{Shard: i, Addr: workerAddr(w), Live: w != nil}
	}
	return hs
}
