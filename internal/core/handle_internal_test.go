package core

import (
	"reflect"
	"testing"

	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/intern"
	"grminer/internal/metrics"
)

// killableWorker is a real worker that a test can declare lost: every
// operation then fails with worker loss, while the state it held stays
// readable for comparison with its replacement.
type killableWorker struct {
	*WorkerState
	lost bool
}

func (k *killableWorker) alive() error {
	if k.lost {
		return lostErr{msg: "worker killed"}
	}
	return nil
}

func (k *killableWorker) Offer(b *OfferBound) ([]ShardCandidate, Stats, error) {
	if err := k.alive(); err != nil {
		return nil, Stats{}, err
	}
	return k.WorkerState.Offer(b)
}

func (k *killableWorker) Counts(grs []gr.GR) ([]metrics.Counts, error) {
	if err := k.alive(); err != nil {
		return nil, err
	}
	return k.WorkerState.Counts(grs)
}

func (k *killableWorker) Ingest(b Batch) (IngestReply, error) {
	if err := k.alive(); err != nil {
		return IngestReply{}, err
	}
	return k.WorkerState.Ingest(b)
}

func (k *killableWorker) Checkpoint() ([]byte, error) {
	if err := k.alive(); err != nil {
		return nil, err
	}
	return k.WorkerState.Checkpoint()
}

// killableBuilder places killable in-process workers and keeps every
// placement, in order.
type killableBuilder struct{ placed []*killableWorker }

func (b *killableBuilder) place(w *WorkerState, err error) (ShardWorker, error) {
	if err != nil {
		return nil, err
	}
	k := &killableWorker{WorkerState: w}
	b.placed = append(b.placed, k)
	return k, nil
}

func (b *killableBuilder) Build(spec WorkerSpec) (ShardWorker, error) {
	return b.place(NewWorkerState(spec))
}

func (b *killableBuilder) Rebuild(spec WorkerSpec) (ShardWorker, error) { return b.Build(spec) }

func (b *killableBuilder) RebuildRestore(spec WorkerSpec, blob []byte) (ShardWorker, error) {
	return b.place(NewWorkerStateFromCheckpoint(spec, blob))
}

// poolHandles maps each maintained pool entry's GR to its handle.
func poolHandles(w *WorkerState) map[string]intern.GRID {
	out := make(map[string]intern.GRID, w.pool.len())
	for i, t := range w.pool.entries {
		out[t.gr.Key()] = w.pool.ids[i]
	}
	return out
}

// TestShardReplacementKeepsPoolHandles pins what handle-addressed ingest
// replies rest on: a replacement worker names every pool entry by the same
// handle as the worker it replaces, on both recovery paths — spec rebuild
// plus seed and full replay, and checkpoint restore plus suffix replay —
// so the coordinator's handle mirror stays valid across failover. The
// re-issued batch's reply must equal, handles included, the reply the lost
// worker gives the same batch.
func TestShardReplacementKeepsPoolHandles(t *testing.T) {
	spec := realWorkerSpec(t, 11, 2, 0)
	var batches []Batch
	for i := 0; i < 5; i++ {
		batches = append(batches, Batch{
			Ins: []EdgeInsert{
				{Src: i, Dst: 9 - i, Vals: []graph.Value{graph.Value(1 + i%2)}},
				{Src: (3 * i) % 10, Dst: (i + 4) % 10, Vals: []graph.Value{2}},
			},
			Del: []EdgeDelete{specDelete(spec, i)},
		})
	}
	// The last batch, re-issued after the loss, inserts a fan of edges so
	// that new GRs enter the pool.
	pre, last := batches, Batch{}
	for i := 0; i < 10; i++ {
		last.Ins = append(last.Ins, EdgeInsert{Src: i, Dst: (7*i + 3) % 10, Vals: []graph.Value{1}})
	}
	for _, tc := range []struct {
		name     string
		interval int
	}{
		{"spec rebuild and full replay", 0},
		{"checkpoint restore and suffix replay", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := &killableBuilder{}
			w, err := b.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			sup := newSupervisor(spec, b, w, tc.interval)
			if _, _, err := sup.Offer(nil); err != nil {
				t.Fatal(err)
			}
			for i, batch := range pre {
				if _, err := sup.Ingest(batch); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
			}
			lost := b.placed[0]
			lost.lost = true
			got, err := sup.Ingest(last)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			h := sup.healthSnapshot()
			if len(b.placed) != 2 || h.Replacements != 1 {
				t.Fatalf("want one replacement, got %d placements, health %+v", len(b.placed), h)
			}
			// Five logged batches: a full replay of all five, or a
			// checkpoint after the fourth and a one-batch suffix.
			wantReplay := int64(len(pre))
			if tc.interval > 0 {
				wantReplay = int64(len(pre) % tc.interval)
				if h.CheckpointEpoch == 0 || wantReplay == 0 {
					t.Fatalf("fixture does not exercise restore plus a non-empty suffix: %+v", h)
				}
			}
			if h.ReplayedBatches != wantReplay {
				t.Fatalf("recovery replayed %d batches, want %d", h.ReplayedBatches, wantReplay)
			}

			lost.lost = false
			want, err := lost.Ingest(last)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Deltas) == 0 || len(want.Entered) == 0 {
				t.Fatalf("fixture batch has no deltas or no entrants; the comparison is vacuous: %+v", want)
			}
			got.Stats, want.Stats = Untimed(got.Stats), Untimed(want.Stats)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("replacement's reply differs from the lost worker's:\n got %+v\nwant %+v", got, want)
			}
			repl := b.placed[1].WorkerState
			if gotH, wantH := poolHandles(repl), poolHandles(lost.WorkerState); !reflect.DeepEqual(gotH, wantH) {
				t.Errorf("replacement's GR → handle map differs from the lost worker's:\n got %v\nwant %v", gotH, wantH)
			}
		})
	}
}
