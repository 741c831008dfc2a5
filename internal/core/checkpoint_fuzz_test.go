package core

import (
	"testing"

	"grminer/internal/graph"
)

// checkpointFuzzFixture is FuzzWorkerCheckpoint's worker — seeded, then
// one mixed batch, so the store carries a tombstone — with its spec and
// checkpoint blob.
func checkpointFuzzFixture(t testing.TB) (WorkerSpec, []byte) {
	t.Helper()
	spec := realWorkerSpec(t, 11, 2, 0)
	w, err := NewWorkerState(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Offer(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Ingest(Batch{
		Ins: []EdgeInsert{{Src: 0, Dst: 1, Vals: []graph.Value{1}}},
		Del: []EdgeDelete{specDelete(spec, 0)},
	}); err != nil {
		t.Fatal(err)
	}
	blob, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return spec, blob
}

// FuzzWorkerCheckpoint feeds arbitrary bytes to the checkpoint restore that
// shardd's OpRestore takes off the wire. A blob must restore or fail with an
// error, never panic; a blob that restores must leave a worker that can
// ingest and checkpoint again. The checked-in corpus holds the fixture's
// real blob, its version 2 and version 3 predecessors, and one corruption
// of it per class of blobCorruptions past the version check
// (TestCheckpointFuzzCorpusCurrent keeps them current).
func FuzzWorkerCheckpoint(f *testing.F) {
	spec, blob := checkpointFuzzFixture(f)
	f.Add(blob)
	next := Batch{
		Ins: []EdgeInsert{{Src: 2, Dst: 3, Vals: []graph.Value{2}}, {Src: 3, Dst: 2, Vals: []graph.Value{1}}},
		Del: []EdgeDelete{specDelete(spec, 2)},
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		r, err := NewWorkerStateFromCheckpoint(spec, blob)
		if err != nil {
			return
		}
		// Either outcome is fine for a restored blob; only a panic fails.
		_, _ = r.Ingest(next)
		if _, err := r.Checkpoint(); err != nil {
			t.Fatalf("restored worker cannot checkpoint: %v", err)
		}
	})
}
