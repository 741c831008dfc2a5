package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"grminer/internal/gr"
	"grminer/internal/metrics"
)

// lostErr is the transport-loss marker the rpc layer tags its failures
// with, reproduced here so the supervisor's classification can be tested
// without a network.
type lostErr struct{ msg string }

func (e lostErr) Error() string    { return e.msg }
func (e lostErr) WorkerLost() bool { return true }

// fakeWorker scripts a ShardWorker: it records every operation and can be
// told to fail the next ops with transport loss or an in-band error. Its
// checkpoint blob is just the worker's address, so the supervisor's
// truncation bookkeeping can be tested without real worker state.
type fakeWorker struct {
	addr     string
	ops      []string
	failLost int   // fail this many upcoming ops with worker loss
	inBand   error // non-nil: fail every op with this plain error
	chkErr   error // non-nil: Checkpoint fails with this
	closed   bool
}

func (f *fakeWorker) step(op string) error {
	if f.failLost > 0 {
		f.failLost--
		return lostErr{msg: "fake transport down"}
	}
	if f.inBand != nil {
		return f.inBand
	}
	f.ops = append(f.ops, op)
	return nil
}

func (f *fakeWorker) Addr() string  { return f.addr }
func (f *fakeWorker) NumEdges() int { return 0 }
func (f *fakeWorker) Close() error  { f.closed = true; return nil }

func (f *fakeWorker) Offer(bound *OfferBound) ([]ShardCandidate, Stats, error) {
	op := "offer"
	if bound == nil {
		op = "seed"
	}
	return nil, Stats{}, f.step(op)
}

func (f *fakeWorker) Counts(grs []gr.GR) ([]metrics.Counts, error) {
	if err := f.step("counts"); err != nil {
		return nil, err
	}
	return make([]metrics.Counts, len(grs)), nil
}

func (f *fakeWorker) Ingest(b Batch) (IngestReply, error) {
	return IngestReply{}, f.step(fmt.Sprintf("ingest:%d", len(b.Ins)))
}

func (f *fakeWorker) Checkpoint() ([]byte, error) {
	if f.chkErr != nil {
		return nil, f.chkErr
	}
	f.ops = append(f.ops, "checkpoint")
	return []byte(f.addr), nil
}

// fakeBuilder hands out scripted replacement workers.
type fakeBuilder struct {
	rebuilds              int
	replacements          []*fakeWorker
	replacementFailLost   int   // scripted failLost for each new replacement
	replacementRestoreErr error // non-nil: RebuildRestore places, then fails with this
	err                   error
}

func (fb *fakeBuilder) Build(WorkerSpec) (ShardWorker, error) {
	return nil, errors.New("not used")
}

func (fb *fakeBuilder) Rebuild(WorkerSpec) (ShardWorker, error) {
	fb.rebuilds++
	if fb.err != nil {
		return nil, fb.err
	}
	w := &fakeWorker{
		addr:     fmt.Sprintf("replacement-%d", fb.rebuilds),
		failLost: fb.replacementFailLost,
	}
	fb.replacements = append(fb.replacements, w)
	return w, nil
}

// RebuildRestore places a replacement and records the blob it was
// restored from; a scripted restore failure closes the placed worker, as
// rpc.Fleet releases a slot whose restore the daemon refused.
func (fb *fakeBuilder) RebuildRestore(spec WorkerSpec, blob []byte) (ShardWorker, error) {
	w, err := fb.Rebuild(spec)
	if err != nil {
		return nil, err
	}
	f := w.(*fakeWorker)
	if fb.replacementRestoreErr != nil {
		f.Close()
		return nil, fb.replacementRestoreErr
	}
	f.ops = append(f.ops, "restore:"+string(blob))
	return f, nil
}

func batchOf(n int) Batch {
	ins := make([]EdgeInsert, n)
	return Batch{Ins: ins}
}

// A lost worker must be closed, rebuilt, re-seeded, replayed in log order,
// and the failed operation re-issued — with the health record keeping score.
func TestSupervisorReplaysAfterLoss(t *testing.T) {
	w0 := &fakeWorker{addr: "home"}
	fb := &fakeBuilder{}
	sup := newSupervisor(WorkerSpec{Index: 2, Shards: 4}, fb, w0, 0)

	if _, _, err := sup.Offer(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Ingest(batchOf(1)); err != nil {
		t.Fatal(err)
	}

	w0.failLost = 1
	if _, err := sup.Ingest(batchOf(2)); err != nil {
		t.Fatalf("ingest across a worker loss: %v", err)
	}
	if !w0.closed {
		t.Error("lost worker not closed")
	}
	if fb.rebuilds != 1 {
		t.Fatalf("%d rebuilds, want 1", fb.rebuilds)
	}
	// Replacement saw: pool re-seed, the logged batch, then the re-issued one.
	want := []string{"seed", "ingest:1", "ingest:2"}
	if got := fmt.Sprint(fb.replacements[0].ops); got != fmt.Sprint(want) {
		t.Errorf("replacement ops %v, want %v", fb.replacements[0].ops, want)
	}

	h := sup.healthSnapshot()
	if !h.Live || h.Shard != 2 || h.Addr != "replacement-1" {
		t.Errorf("health %+v, want live shard 2 on replacement-1", h)
	}
	if h.Replacements != 1 || h.Retries != 1 || h.ReplayedBatches != 1 {
		t.Errorf("counters %+v, want 1 replacement / 1 retry / 1 replayed batch", h)
	}
	if !strings.Contains(h.LastError, "transport down") {
		t.Errorf("LastError %q does not name the cause", h.LastError)
	}

	// The re-issued batch joined the log: a second loss replays both.
	fb.replacements[0].failLost = 1
	if _, _, err := sup.Offer(&OfferBound{}); err != nil {
		t.Fatalf("offer across the second loss: %v", err)
	}
	want = []string{"seed", "ingest:1", "ingest:2", "offer"}
	if got := fmt.Sprint(fb.replacements[1].ops); got != fmt.Sprint(want) {
		t.Errorf("second replacement ops %v, want %v", fb.replacements[1].ops, want)
	}
}

// An in-band application error means the worker is alive: no rebuild, no
// health change, the error escapes untouched.
func TestSupervisorInBandErrorNoFailover(t *testing.T) {
	w0 := &fakeWorker{addr: "home", inBand: errors.New("batch rejected: edge out of range")}
	fb := &fakeBuilder{}
	sup := newSupervisor(WorkerSpec{Index: 0, Shards: 1}, fb, w0, 0)

	_, err := sup.Ingest(batchOf(1))
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("in-band error not surfaced: %v", err)
	}
	if fb.rebuilds != 0 {
		t.Errorf("in-band error triggered %d rebuilds", fb.rebuilds)
	}
	if h := sup.healthSnapshot(); !h.Live || h.Retries != 0 || h.LastError != "" {
		t.Errorf("in-band error dented the health record: %+v", h)
	}
}

// When no replacement exists the shard is marked down and the error names
// both the loss and the rebuild failure.
func TestSupervisorRebuildFailureMarksDown(t *testing.T) {
	w0 := &fakeWorker{addr: "home", failLost: 1}
	fb := &fakeBuilder{err: errors.New("every candidate refused")}
	sup := newSupervisor(WorkerSpec{Index: 1, Shards: 2}, fb, w0, 0)

	_, _, err := sup.Offer(nil)
	if err == nil || !strings.Contains(err.Error(), "no replacement available") {
		t.Fatalf("rebuild failure not surfaced: %v", err)
	}
	if !strings.Contains(err.Error(), "transport down") || !strings.Contains(err.Error(), "refused") {
		t.Errorf("error hides the cause chain: %v", err)
	}
	if h := sup.healthSnapshot(); h.Live {
		t.Errorf("shard still reports live after a failed rebuild: %+v", h)
	}
}

// Exactly one recovery per operation: when the freshly replayed replacement
// dies on the re-issued op too, the loss escapes instead of looping.
func TestSupervisorSingleRecoveryPerOp(t *testing.T) {
	w0 := &fakeWorker{addr: "home", failLost: 1}
	fb := &fakeBuilder{replacementFailLost: 1}
	sup := newSupervisor(WorkerSpec{Index: 0, Shards: 1}, fb, w0, 0)

	_, _, err := sup.Offer(nil)
	var lost interface{ WorkerLost() bool }
	if err == nil || !errors.As(err, &lost) {
		t.Fatalf("double loss should surface the transport error, got %v", err)
	}
	if fb.rebuilds != 1 {
		t.Errorf("%d rebuilds in one op, want exactly 1", fb.rebuilds)
	}
}

// Every interval acked batches the supervisor checkpoints the worker and
// truncates the replay log; recovery then installs the blob and replays at
// most interval batches, regardless of how long the stream ran.
func TestSupervisorCheckpointTruncatesLog(t *testing.T) {
	w0 := &fakeWorker{addr: "home"}
	fb := &fakeBuilder{}
	sup := newSupervisor(WorkerSpec{Index: 0, Shards: 1}, fb, w0, 2)

	if _, _, err := sup.Offer(nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if _, err := sup.Ingest(batchOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"seed", "ingest:1", "ingest:2", "checkpoint"}
	if got := fmt.Sprint(w0.ops); got != fmt.Sprint(want) {
		t.Fatalf("ops before loss %v, want %v", w0.ops, want)
	}
	h := sup.healthSnapshot()
	if h.CheckpointEpoch != 1 || h.LogSuffixLen != 0 {
		t.Fatalf("after checkpoint: epoch %d suffix %d, want 1 and 0", h.CheckpointEpoch, h.LogSuffixLen)
	}

	// One post-checkpoint batch, then a loss: the replacement restores the
	// blob and replays only the suffix — never the seed, never batches 1-2.
	if _, err := sup.Ingest(batchOf(3)); err != nil {
		t.Fatal(err)
	}
	if h := sup.healthSnapshot(); h.LogSuffixLen != 1 {
		t.Fatalf("log suffix %d after one post-checkpoint batch, want 1", h.LogSuffixLen)
	}
	w0.failLost = 1
	if _, err := sup.Ingest(batchOf(4)); err != nil {
		t.Fatalf("ingest across the loss: %v", err)
	}
	want = []string{"restore:home", "ingest:3", "ingest:4", "checkpoint"}
	if got := fmt.Sprint(fb.replacements[0].ops); got != fmt.Sprint(want) {
		t.Errorf("replacement ops %v, want %v", fb.replacements[0].ops, want)
	}
	h = sup.healthSnapshot()
	if h.ReplayedBatches != 1 || h.ReplayedBatches > int64(sup.interval) {
		t.Errorf("replayed %d batches, want 1 (≤ interval %d)", h.ReplayedBatches, sup.interval)
	}
	// The re-issued batch 4 made the suffix 2 long again — a second
	// checkpoint (now from the replacement) truncated it.
	if h.CheckpointEpoch != 2 || h.LogSuffixLen != 0 {
		t.Errorf("after recovery: epoch %d suffix %d, want 2 and 0", h.CheckpointEpoch, h.LogSuffixLen)
	}
}

// A failed checkpoint must not truncate anything: the supervisor keeps the
// old blob and the longer log — recovery is exact either way, just slower —
// and retries at the next interval.
func TestSupervisorCheckpointFailureKeepsLog(t *testing.T) {
	w0 := &fakeWorker{addr: "home", chkErr: errors.New("blob too rich")}
	fb := &fakeBuilder{}
	sup := newSupervisor(WorkerSpec{Index: 0, Shards: 1}, fb, w0, 2)

	if _, _, err := sup.Offer(nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := sup.Ingest(batchOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	h := sup.healthSnapshot()
	if h.CheckpointEpoch != 0 || h.LogSuffixLen != 4 {
		t.Fatalf("failed checkpoints truncated: epoch %d suffix %d, want 0 and 4", h.CheckpointEpoch, h.LogSuffixLen)
	}
	// Interval 2: batch 2 fills the log, and while it stays full every
	// acked batch retries — three attempts, all failed, all counted.
	if h.CheckpointFailures != 3 {
		t.Fatalf("checkpoint failures %d, want 3", h.CheckpointFailures)
	}
	// Recovery falls back to the full pre-checkpoint replay: seed + log.
	// The replacement checkpoints fine, so the re-issued batch tips the
	// (full) log over the interval and truncation finally resumes.
	w0.failLost = 1
	if _, err := sup.Ingest(batchOf(5)); err != nil {
		t.Fatal(err)
	}
	want := []string{"seed", "ingest:1", "ingest:2", "ingest:3", "ingest:4", "ingest:5", "checkpoint"}
	if got := fmt.Sprint(fb.replacements[0].ops); got != fmt.Sprint(want) {
		t.Errorf("fallback replay ops %v, want %v", fb.replacements[0].ops, want)
	}
	h = sup.healthSnapshot()
	if h.CheckpointEpoch != 1 || h.LogSuffixLen != 0 || h.CheckpointFailures != 3 {
		t.Errorf("after recovery: epoch %d suffix %d failures %d, want 1, 0 and 3",
			h.CheckpointEpoch, h.LogSuffixLen, h.CheckpointFailures)
	}
}

// Once a checkpoint truncated the log, a replacement that cannot restore
// the blob cannot host the shard — the log prefix is gone, so full replay
// is impossible and the recovery must fail closed, not silently diverge.
func TestSupervisorRestoreFailureMarksDown(t *testing.T) {
	w0 := &fakeWorker{addr: "home"}
	fb := &fakeBuilder{replacementRestoreErr: errors.New("foreign blob version")}
	sup := newSupervisor(WorkerSpec{Index: 0, Shards: 1}, fb, w0, 1)

	if _, _, err := sup.Offer(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Ingest(batchOf(1)); err != nil {
		t.Fatal(err)
	}
	w0.failLost = 1
	_, err := sup.Ingest(batchOf(2))
	if err == nil || !strings.Contains(err.Error(), "checkpoint restore failed") {
		t.Fatalf("restore failure not surfaced: %v", err)
	}
	if h := sup.healthSnapshot(); h.Live {
		t.Errorf("shard still reports live after a failed restore: %+v", h)
	}
	if len(fb.replacements) != 1 || !fb.replacements[0].closed {
		t.Error("failed replacement not closed")
	}
}

// A worker lost during its first seed is rebuilt unseeded: the supervisor
// marks a shard seeded only once a seed succeeds, so the re-issued
// Offer(nil) is the replacement's one seed.
//
// A seeding Offer(nil) that dies on an already-seeded shard is recovered
// like any other operation: the replacement is rebuilt, re-seeded and
// replayed, and the re-issued Offer(nil) seeds it again. Workers refuse
// Ingest before a seeding Offer, so the replay seed is mandatory;
// TestDoubleSeedIdempotent pins that the second seed is harmless on real
// state.
func TestSupervisorKillDuringSeedSingleSeed(t *testing.T) {
	w0 := &fakeWorker{addr: "home", failLost: 1}
	fb := &fakeBuilder{}
	sup := newSupervisor(WorkerSpec{Index: 0, Shards: 1}, fb, w0, 0)

	if _, _, err := sup.Offer(nil); err != nil {
		t.Fatalf("first seed across the loss: %v", err)
	}
	want := []string{"seed"}
	if got := fmt.Sprint(fb.replacements[0].ops); got != fmt.Sprint(want) {
		t.Errorf("replacement ops %v, want exactly one seed", fb.replacements[0].ops)
	}

	if _, err := sup.Ingest(batchOf(1)); err != nil {
		t.Fatal(err)
	}
	fb.replacements[0].failLost = 1
	if _, _, err := sup.Offer(nil); err != nil {
		t.Fatalf("second seed offer across the loss: %v", err)
	}
	want = []string{"seed", "ingest:1", "seed"}
	if got := fmt.Sprint(fb.replacements[1].ops); got != fmt.Sprint(want) {
		t.Errorf("replacement ops %v, want %v", fb.replacements[1].ops, want)
	}
}

// FleetHealth must keep answering while a recovery is in flight: the
// supervisor reports Recovering instead of blocking the snapshot on the
// rebuild. The fake builder blocks its Rebuild until the health snapshot
// has been observed, which deadlocks if recover still holds the lock.
func TestSupervisorHealthDuringRecovery(t *testing.T) {
	w0 := &fakeWorker{addr: "home", failLost: 1}
	fb := &fakeBuilder{}
	sup := newSupervisor(WorkerSpec{Index: 0, Shards: 1}, fb, w0, 0)

	rebuilding := make(chan struct{})
	observed := make(chan WorkerHealth, 1)
	blocking := &blockingBuilder{fakeBuilder: fb, entered: rebuilding, release: make(chan struct{})}
	sup.rb = blocking

	go func() {
		<-rebuilding
		observed <- sup.healthSnapshot()
		close(blocking.release)
	}()
	if _, _, err := sup.Offer(&OfferBound{}); err != nil {
		t.Fatalf("offer across the loss: %v", err)
	}
	h := <-observed
	if !h.Recovering {
		t.Errorf("mid-recovery snapshot %+v, want Recovering", h)
	}
	if h := sup.healthSnapshot(); h.Recovering || !h.Live {
		t.Errorf("post-recovery snapshot %+v, want live and not recovering", h)
	}
}

// blockingBuilder gates Rebuild on a channel so a test can observe
// mid-recovery state.
type blockingBuilder struct {
	*fakeBuilder
	entered chan struct{}
	release chan struct{}
}

func (bb *blockingBuilder) Rebuild(spec WorkerSpec) (ShardWorker, error) {
	close(bb.entered)
	<-bb.release
	return bb.fakeBuilder.Rebuild(spec)
}

// A worker that was never pool-seeded must not be re-seeded on replay.
func TestSupervisorUnseededReplaySkipsSeed(t *testing.T) {
	w0 := &fakeWorker{addr: "home"}
	fb := &fakeBuilder{}
	sup := newSupervisor(WorkerSpec{Index: 0, Shards: 1}, fb, w0, 0)

	if _, err := sup.Ingest(batchOf(3)); err != nil {
		t.Fatal(err)
	}
	w0.failLost = 1
	if _, err := sup.Ingest(batchOf(4)); err != nil {
		t.Fatal(err)
	}
	want := []string{"ingest:3", "ingest:4"}
	if got := fmt.Sprint(fb.replacements[0].ops); got != fmt.Sprint(want) {
		t.Errorf("unseeded replay ops %v, want %v (no seed offer)", fb.replacements[0].ops, want)
	}
}
