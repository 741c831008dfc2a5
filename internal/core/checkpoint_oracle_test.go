package core_test

import (
	"math/rand"
	"testing"

	"grminer/internal/core"
	"grminer/internal/gr"
	"grminer/internal/metrics"
)

// chaosLostErr is the transport-loss tag, minted test-side so the chaos
// builder below can kill workers without a network.
type chaosLostErr struct{}

func (chaosLostErr) Error() string    { return "chaos: worker killed" }
func (chaosLostErr) WorkerLost() bool { return true }

// chaosWorker wraps a real in-process WorkerState with a kill switch: once
// armed, the next operation fails with worker loss, exactly as a torn
// daemon connection would. Checkpoint forwards to the real worker so the
// supervisor's truncation machinery engages.
type chaosWorker struct {
	w     *core.WorkerState
	armed bool
}

func (c *chaosWorker) fail() bool {
	if c.armed {
		c.armed = false
		return true
	}
	return false
}

func (c *chaosWorker) NumEdges() int { return c.w.NumEdges() }
func (c *chaosWorker) Close() error  { return c.w.Close() }

func (c *chaosWorker) Offer(bound *core.OfferBound) ([]core.ShardCandidate, core.Stats, error) {
	if c.fail() {
		return nil, core.Stats{}, chaosLostErr{}
	}
	return c.w.Offer(bound)
}

func (c *chaosWorker) Counts(grs []gr.GR) ([]metrics.Counts, error) {
	if c.fail() {
		return nil, chaosLostErr{}
	}
	return c.w.Counts(grs)
}

func (c *chaosWorker) Ingest(b core.Batch) (core.IngestReply, error) {
	if c.fail() {
		return core.IngestReply{}, chaosLostErr{}
	}
	return c.w.Ingest(b)
}

func (c *chaosWorker) Checkpoint() ([]byte, error) {
	if c.fail() {
		return nil, chaosLostErr{}
	}
	return c.w.Checkpoint()
}

// chaosBuilder is an in-process RebuildingBuilder whose live workers the
// test can kill by shard index.
type chaosBuilder struct {
	byShard  map[int]*chaosWorker
	rebuilds int
}

func (b *chaosBuilder) place(spec core.WorkerSpec, w *core.WorkerState, err error) (core.ShardWorker, error) {
	if err != nil {
		return nil, err
	}
	cw := &chaosWorker{w: w}
	b.byShard[spec.Index] = cw
	return cw, nil
}

func (b *chaosBuilder) Build(spec core.WorkerSpec) (core.ShardWorker, error) {
	w, err := core.NewWorkerState(spec)
	return b.place(spec, w, err)
}

func (b *chaosBuilder) Rebuild(spec core.WorkerSpec) (core.ShardWorker, error) {
	b.rebuilds++
	return b.Build(spec)
}

func (b *chaosBuilder) RebuildRestore(spec core.WorkerSpec, blob []byte) (core.ShardWorker, error) {
	b.rebuilds++
	w, err := core.NewWorkerStateFromCheckpoint(spec, blob)
	return b.place(spec, w, err)
}

// TestShardedCheckpointFailoverOracle is the randomized kill-after-checkpoint
// oracle: a sharded incremental engine with checkpointing on streams random
// mixed batches while workers are killed at random points — before the first
// checkpoint, right after one, mid-stream — and after EVERY batch the
// maintained top-k must equal a fresh single-store mine of the surviving
// graph. At the end, the health counters must prove the truncation actually
// bounded replay: each shard replayed at most interval batches per
// replacement, and checkpoints were taken.
func TestShardedCheckpointFailoverOracle(t *testing.T) {
	const interval = 2
	for _, seed := range []int64{3, 7} {
		full := randomGraph(seed, true, seed%2 == 0)
		base := full.NumEdges() * 3 / 5
		build := &chaosBuilder{byShard: make(map[int]*chaosWorker)}
		opt := core.Options{MinSupp: 1, MinScore: 0.3, K: 10}
		so := core.ShardOptions{Shards: 3, CheckpointInterval: interval}
		inc, err := core.NewIncrementalShardedFrom(prefixGraph(full, base), opt, so, build)
		if err != nil {
			t.Fatal(err)
		}
		ds := newDynamicStream(t, "checkpoint-chaos", seed, prefixGraph(full, base))
		r := rand.New(rand.NewSource(seed * 101))
		kills := 0
		for i := 0; i < 14; i++ {
			if r.Intn(3) == 0 {
				// Kill a random shard's CURRENT worker (replacements
				// registered themselves in byShard on rebuild).
				shard := r.Intn(so.Shards)
				if cw := build.byShard[shard]; cw != nil && !cw.armed {
					cw.armed = true
					kills++
				}
			}
			res, _, err := inc.ApplyBatch(ds.nextBatch())
			if err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, i, err)
			}
			ds.check(res.TopK, inc.Options())
		}
		if kills == 0 || build.rebuilds == 0 {
			t.Fatalf("seed %d: chaos never engaged (%d kills, %d rebuilds)", seed, kills, build.rebuilds)
		}
		sawCheckpoint := false
		for _, h := range inc.FleetHealth() {
			if !h.Live {
				t.Errorf("seed %d: shard %d down after recovery: %+v", seed, h.Shard, h)
			}
			if h.CheckpointEpoch > 0 {
				sawCheckpoint = true
			}
			if h.Replacements > 0 && h.ReplayedBatches > h.Replacements*interval {
				t.Errorf("seed %d: shard %d replayed %d batches over %d replacements — truncation failed to bound replay by the interval (%d)",
					seed, h.Shard, h.ReplayedBatches, h.Replacements, interval)
			}
			if h.LogSuffixLen >= 2*interval {
				t.Errorf("seed %d: shard %d log suffix %d, should hover below the interval %d",
					seed, h.Shard, h.LogSuffixLen, interval)
			}
		}
		if !sawCheckpoint {
			t.Errorf("seed %d: no shard ever checkpointed", seed)
		}
		if err := inc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
