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
// replacement through the RebuildingBuilder, reproduces the lost state
// (install checkpoint + replay the log suffix, or seed + full replay if no
// checkpoint exists), re-issues the failed operation once, and the run
// continues as if nothing happened.
//
// Replay is exact, not approximate:
//
//   - the checkpoint blob is a faithful serialization of the worker's full
//     shard state (graph edge log with tombstones, exact store arrays,
//     intern dictionary, maintained pool), so a restored worker is
//     bit-identical to the one that wrote the blob;
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
		if rerr := s.recover(err, bound == nil); rerr != nil {
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
		if rerr := s.recover(err, false); rerr != nil {
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
		if rerr := s.recover(err, false); rerr != nil {
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
	cp, ok := w.(Checkpointer)
	if !ok {
		return
	}
	blob, err := cp.Checkpoint()
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

// Close releases the current worker.
func (s *supervisor) Close() error { return s.worker().Close() }

// recover places a replacement worker and reproduces the lost shard state
// on it. seedInFlight marks that the failed operation was itself a seeding
// Offer(nil); when additionally nothing needs replaying, the replay-side
// re-seed is skipped — the caller's re-issue IS the seed, and running it
// twice would only recompute the identical pool (the pool is a pure
// function of the store; pinned by TestDoubleSeedIdempotent).
//
// The lock is held only to read and swap state, never across the rebuild
// and replay themselves: FleetHealth keeps answering during a recovery,
// reporting the shard as Recovering. On failure the shard is marked down
// and the original loss is wrapped so the caller sees both what died and
// why no replacement could take over. s.inner is left pointing at the dead
// worker (Close on a lost worker is safe and idempotent) so a later Close
// of the deployment still releases whatever is left.
func (s *supervisor) recover(cause error, seedInFlight bool) error {
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
	w, err := s.rebuildReplacement(chk, seeded, log, seedInFlight)

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

// rebuildReplacement builds a replacement worker and reproduces the lost
// state on it: install the checkpoint blob (when one exists) and replay
// the post-checkpoint log suffix, or — before any checkpoint — rebuild
// from the spec and replay seed + full log. Runs without s.mu held.
func (s *supervisor) rebuildReplacement(chk []byte, seeded bool, log []Batch, seedInFlight bool) (ShardWorker, error) {
	if chk == nil {
		w, err := s.rb.Rebuild(s.spec)
		if err != nil {
			return nil, fmt.Errorf("worker lost and no replacement available: %w", err)
		}
		if err := replayInto(w, seeded, log, seedInFlight); err != nil {
			w.Close()
			return nil, fmt.Errorf("replay into replacement failed: %w", err)
		}
		return w, nil
	}
	// With a checkpoint the log prefix it covers is gone, so a replacement
	// that cannot restore the blob cannot host the shard — full replay is
	// no longer possible and the recovery fails closed.
	w, err := s.restoreReplacement(chk)
	if err != nil {
		return nil, fmt.Errorf("worker lost and checkpoint restore failed: %w", err)
	}
	for i, b := range log {
		if _, err := w.Ingest(b); err != nil {
			w.Close()
			return nil, fmt.Errorf("replay into replacement failed: batch %d/%d: %w", i+1, len(log), err)
		}
	}
	return w, nil
}

// restoreReplacement places a worker initialized from the checkpoint blob:
// in one round trip when the builder can (rpc.Fleet ships the blob with
// the placement), otherwise by building from the spec and restoring into
// the fresh worker.
func (s *supervisor) restoreReplacement(chk []byte) (ShardWorker, error) {
	if rr, ok := s.rb.(RestoringBuilder); ok {
		return rr.RebuildRestore(s.spec, chk)
	}
	w, err := s.rb.Rebuild(s.spec)
	if err != nil {
		return nil, err
	}
	r, ok := w.(Restorer)
	if !ok {
		w.Close()
		return nil, fmt.Errorf("replacement worker cannot restore a checkpoint")
	}
	if err := r.Restore(s.spec, chk); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// replayInto reproduces a lost pre-checkpoint worker's state on a fresh
// replacement: pool seed first (if the shard was ever seeded), then every
// logged batch in ingest order. When the operation that died was itself
// the seeding Offer and there are no batches to replay, the seed is left
// to the re-issued operation (seedInFlight) — replaying it here too would
// double-seed for nothing. With batches in the log the seed is mandatory
// regardless (workers refuse Ingest before a seeding Offer), and the
// re-issued Offer(nil) then recomputes the identical pool.
func replayInto(w ShardWorker, seeded bool, log []Batch, seedInFlight bool) error {
	if seeded && !(seedInFlight && len(log) == 0) {
		if _, _, err := w.Offer(nil); err != nil {
			return fmt.Errorf("re-seed: %w", err)
		}
	}
	for i, b := range log {
		if _, err := w.Ingest(b); err != nil {
			return fmt.Errorf("batch %d/%d: %w", i+1, len(log), err)
		}
	}
	return nil
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
