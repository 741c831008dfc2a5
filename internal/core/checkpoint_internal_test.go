package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
)

// realWorkerSpec builds shard idx's spec of a random partitioned graph —
// the same construction buildShardDeployment runs, so the worker under
// test is exactly what a deployment would host.
func realWorkerSpec(t testing.TB, seed int64, shards, idx int) WorkerSpec {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	schema, err := graph.NewSchema(
		[]graph.Attribute{
			{Name: "A", Domain: 3, Homophily: true},
			{Name: "B", Domain: 2},
		},
		[]graph.Attribute{{Name: "W", Domain: 2}},
	)
	if err != nil {
		t.Fatal(err)
	}
	n := 10
	g := graph.MustNew(schema, n)
	for v := 0; v < n; v++ {
		if err := g.SetNodeValues(v, graph.Value(r.Intn(4)), graph.Value(r.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < 60; e++ {
		if _, err := g.AddEdge(r.Intn(n), r.Intn(n), graph.Value(1+r.Intn(2))); err != nil {
			t.Fatal(err)
		}
	}
	opt, so, err := normalizeSharded(g, Options{MinSupp: 2, MinScore: 0.1, K: 10}, ShardOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := graph.PartitionEdges(g, so.Shards, so.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	return buildWorkerSpec(g, opt, planFromParts(opt, so, parts), parts[idx], idx)
}

// specDelete retracts spec edge i (by its signature, the wire form of a
// deletion).
func specDelete(spec WorkerSpec, i int) EdgeDelete {
	ne := len(spec.EdgeAttrs)
	return EdgeDelete{
		Src:  int(spec.EdgeSrc[i]),
		Dst:  int(spec.EdgeDst[i]),
		Vals: append([]graph.Value(nil), spec.EdgeVals[i*ne:(i+1)*ne]...),
	}
}

// poolEntry and poolSnapshot expose the maintained pool for comparison,
// including the homophily masks upsert derives.
type poolEntry struct {
	C    metrics.Counts
	Mask uint64
}

func poolSnapshot(w *WorkerState) map[string]poolEntry {
	if !w.seeded {
		return nil
	}
	out := make(map[string]poolEntry, w.pool.len())
	for _, t := range w.pool.entries {
		out[t.gr.Key()] = poolEntry{C: t.c, Mask: t.betaMask}
	}
	return out
}

func sortCands(cands []ShardCandidate) {
	sort.Slice(cands, func(i, j int) bool { return cands[i].GR.Key() < cands[j].GR.Key() })
}

// TestWorkerCheckpointRoundTrip pins the tentpole contract: a worker that
// has seeded its pool and ingested mixed batches (inserts + retractions, so
// the store carries tombstones and the graph a dead edge) checkpoints into
// a blob from which NewWorkerStateFromCheckpoint restores an equivalent
// worker — a valid store over the same live edges, the same interned ids,
// the same maintained pool — that behaves identically on every subsequent
// operation.
func TestWorkerCheckpointRoundTrip(t *testing.T) {
	spec := realWorkerSpec(t, 11, 2, 0)
	w, err := NewWorkerState(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Offer(nil); err != nil {
		t.Fatal(err)
	}
	batches := []Batch{
		{
			Ins: []EdgeInsert{{Src: 0, Dst: 1, Vals: []graph.Value{1}}, {Src: 2, Dst: 3, Vals: []graph.Value{2}}},
			Del: []EdgeDelete{specDelete(spec, 0)},
		},
		{
			Ins: []EdgeInsert{{Src: 4, Dst: 5, Vals: []graph.Value{2}}},
			Del: []EdgeDelete{specDelete(spec, 2)},
		},
	}
	for _, b := range batches {
		if _, err := w.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}

	blob, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewWorkerStateFromCheckpoint(spec, blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.st.Validate(); err != nil {
		t.Fatalf("restored store invalid: %v", err)
	}
	if r.NumEdges() != w.NumEdges() {
		t.Fatalf("restored NumEdges %d, want %d", r.NumEdges(), w.NumEdges())
	}
	if !w.g.HasDeadEdges() || r.g.NumLiveEdges() != w.g.NumLiveEdges() {
		t.Fatalf("graph live edges differ: %d/%d (and the fixture must carry tombstones)",
			r.g.NumLiveEdges(), w.g.NumLiveEdges())
	}
	if !reflect.DeepEqual(poolSnapshot(r), poolSnapshot(w)) {
		t.Error("restored maintained pool differs from the original's")
	}

	// Identical onward behavior: the same mixed batch produces the same
	// reply — handles, count columns and entrants included — and the same
	// re-seed produces the same pool.
	next := Batch{
		Ins: []EdgeInsert{{Src: 6, Dst: 7, Vals: []graph.Value{1}}},
		Del: []EdgeDelete{specDelete(spec, 4)},
	}
	repW, errW := w.Ingest(next)
	repR, errR := r.Ingest(next)
	if errW != nil || errR != nil {
		t.Fatalf("post-restore ingest failed: %v / %v", errW, errR)
	}
	if len(repW.Deltas) == 0 {
		t.Fatal("fixture batch produced no deltas; the reply comparison is vacuous")
	}
	if !reflect.DeepEqual(repW, repR) {
		t.Errorf("post-restore ingest replies differ:\n got %+v\nwant %+v", repR, repW)
	}
	ow, _, err := w.Offer(nil)
	if err != nil {
		t.Fatal(err)
	}
	or, _, err := r.Offer(nil)
	if err != nil {
		t.Fatal(err)
	}
	sortCands(ow)
	sortCands(or)
	if !reflect.DeepEqual(ow, or) {
		t.Error("post-restore seed offers differ")
	}
}

// blobCorruptions are the corrupt blobs a restore must refuse, one per
// class, each with the error text it must fail with. Every class that
// reaches past the version check also seeds FuzzWorkerCheckpoint's corpus
// under its file name (TestCheckpointFuzzCorpusCurrent).
var blobCorruptions = []struct {
	file, want string
	edit       func(*checkpointImage)
}{
	{"foreign_version", "version", func(img *checkpointImage) { img.Version = CheckpointVersion + 1 }},
	{"edge_src_past_nodes", "edge source", func(img *checkpointImage) { img.EdgeSrc[0] = int32(img.NumNodes) }},
	{"edge_vals_misaligned", "inconsistent edge arrays", func(img *checkpointImage) {
		img.EdgeVals = img.EdgeVals[1:]
	}},
	{"edge_value_outside_domain", "out of domain of edge attribute W", func(img *checkpointImage) {
		img.EdgeVals[0] = 7
	}},
	{"pool_attr_outside_schema", "pool entry 0", func(img *checkpointImage) {
		// GR 0's first RHS condition follows its L and W conditions.
		lens := img.Pool.GRs.Lens
		img.Pool.GRs.Attrs[int(lens[0])+int(lens[1])] = 7
	}},
	{"pool_counts_misaligned", "misaligned", func(img *checkpointImage) {
		img.Pool.LW = img.Pool.LW[1:]
	}},
	{"pool_lens_sum", "descriptor lengths sum to", func(img *checkpointImage) {
		img.Pool.GRs.Lens[0]++
	}},
	{"pool_lens_not_triples", "descriptor lengths are not whole", func(img *checkpointImage) {
		img.Pool.GRs.Lens = append(img.Pool.GRs.Lens, 0)
	}},
	{"pool_gr_not_in_dict", "not in the checkpoint's dictionary", func(img *checkpointImage) {
		img.Dict.GRs = img.Dict.GRs[:0]
	}},
	{"pool_repeated_gr", "repeats entry 0", func(img *checkpointImage) {
		grs, err := img.Pool.GRs.Unpack()
		if err != nil {
			panic(err)
		}
		grs[1] = grs[0]
		if img.Pool.GRs, err = gr.PackColumns(grs); err != nil {
			panic(err)
		}
	}},
	{"dict_parent_after_entry", "hangs off", func(img *checkpointImage) {
		img.Dict.Descs[0] = 5 << 32
	}},
	{"dict_pair_past_layout", "steps by pair", func(img *checkpointImage) {
		img.Dict.Descs[0] = 1 << 20
	}},
	{"dict_repeated_key", "repeats a trie edge", func(img *checkpointImage) {
		img.Dict.Descs[1] = img.Dict.Descs[0]
	}},
	{"dict_grs_not_triples", "descriptor ids are not whole", func(img *checkpointImage) {
		img.Dict.GRs = img.Dict.GRs[:len(img.Dict.GRs)-1]
	}},
	{"dict_gr_unknown_desc", "names descriptor", func(img *checkpointImage) {
		img.Dict.GRs[2] = int32(len(img.Dict.Descs) + 1)
	}},
	{"dict_repeated_gr", "repeats a descriptor triple", func(img *checkpointImage) {
		copy(img.Dict.GRs[3:6], img.Dict.GRs[0:3])
	}},
}

// TestCheckpointRejectsMismatch pins the fail-closed checks: a blob must
// refuse a foreign shard's spec, undecodable bytes, and every class of
// blobCorruptions — a version this build does not speak, edges the graph
// refuses (a source past the node table, values misaligned with the edge
// attributes, a value outside its domain), the corruption that used to
// panic inside the restore (a pool GR naming an attribute the schema
// lacks), column shapes that do not line up, pool GRs no real worker
// tracks (one its dictionary never interned, one listed twice), and
// dictionary states interning could not produce.
func TestCheckpointRejectsMismatch(t *testing.T) {
	spec0 := realWorkerSpec(t, 11, 2, 0)
	spec1 := realWorkerSpec(t, 11, 2, 1)
	w, err := NewWorkerState(spec0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Offer(nil); err != nil {
		t.Fatal(err)
	}
	blob, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := NewWorkerStateFromCheckpoint(spec1, blob); err == nil ||
		!strings.Contains(err.Error(), "offered to shard") {
		t.Errorf("foreign shard's spec accepted: %v", err)
	}
	if _, err := NewWorkerStateFromCheckpoint(spec0, []byte("not a checkpoint")); err == nil {
		t.Error("garbage blob accepted")
	}
	for _, tc := range blobCorruptions {
		if _, err := NewWorkerStateFromCheckpoint(spec0, editBlob(t, blob, tc.edit)); err == nil ||
			!strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s accepted: %v", tc.file, err)
		}
	}
}

// TestCheckpointFuzzCorpusCurrent keeps FuzzWorkerCheckpoint's checked-in
// corpus meaningful across blob versions: "real" must restore, and each
// corruption class past the version check must fail with its own error,
// not at the version check. Each file holds editBlob of the fuzz target's
// fixture blob (checkpointFuzzFixture) in the fuzz corpus encoding; when a
// version bump fails this test, regenerate the files from blobCorruptions.
// "real" must also restore to exactly the fixture's current state. "v2_real"
// and "v3_real" are the same fixture's blobs at versions 2 and 3: version 3
// changed the pool and dictionary types, and version 4 dropped the store
// and the dead edges, so each must be refused by its version, not by a
// decode error.
func TestCheckpointFuzzCorpusCurrent(t *testing.T) {
	spec, blob := checkpointFuzzFixture(t)
	dir := filepath.Join("testdata", "fuzz", "FuzzWorkerCheckpoint")
	if r, err := NewWorkerStateFromCheckpoint(spec, readCorpusBlob(t, filepath.Join(dir, "real"))); err != nil {
		t.Errorf("corpus file real does not restore: %v", err)
	} else if again, err := r.Checkpoint(); err != nil || !bytes.Equal(again, blob) {
		t.Errorf("corpus file real restores to a state other than the fixture's (checkpoint error %v)", err)
	}
	for v := 2; v <= 3; v++ {
		_, err := NewWorkerStateFromCheckpoint(spec, readCorpusBlob(t, filepath.Join(dir, fmt.Sprintf("v%d_real", v))))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("checkpoint version %d, this build speaks", v)) {
			t.Errorf("version %d blob: restore error %v, want a version mismatch", v, err)
		}
	}
	for _, tc := range blobCorruptions[1:] {
		_, err := NewWorkerStateFromCheckpoint(spec, readCorpusBlob(t, filepath.Join(dir, tc.file)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("corpus file %s: restore error %v, want one containing %q", tc.file, err, tc.want)
		}
	}
}

// readCorpusBlob reads the []byte argument of a one-argument fuzz corpus
// file.
func readCorpusBlob(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s is not a one-argument []byte fuzz corpus file", path)
	}
	blob, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(blob)
}

// editBlob decodes a checkpoint blob, applies edit, and re-encodes it.
func editBlob(t testing.TB, blob []byte, edit func(*checkpointImage)) []byte {
	t.Helper()
	var img checkpointImage
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&img); err != nil {
		t.Fatal(err)
	}
	edit(&img)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDoubleSeedIdempotent pins the invariant the recovery path's
// double-seed tolerance rests on (failover.go): the maintained pool is a
// pure function of the store, so re-running the seeding Offer(nil) on a
// worker whose pool was delta-maintained through mixed batches recomputes
// the exact same pool.
func TestDoubleSeedIdempotent(t *testing.T) {
	spec := realWorkerSpec(t, 23, 2, 1)
	w, err := NewWorkerState(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Offer(nil); err != nil {
		t.Fatal(err)
	}
	for i, b := range []Batch{
		{Ins: []EdgeInsert{{Src: 1, Dst: 2, Vals: []graph.Value{1}}, {Src: 1, Dst: 3, Vals: []graph.Value{1}}}},
		{Del: []EdgeDelete{specDelete(spec, 1), specDelete(spec, 3)}},
		{Ins: []EdgeInsert{{Src: 5, Dst: 2, Vals: []graph.Value{2}}}, Del: []EdgeDelete{specDelete(spec, 5)}},
	} {
		if _, err := w.Ingest(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	maintained := poolSnapshot(w)
	if len(maintained) == 0 {
		t.Fatal("fixture produced an empty pool; the idempotence check is vacuous")
	}
	if _, _, err := w.Offer(nil); err != nil {
		t.Fatal(err)
	}
	if reseeded := poolSnapshot(w); !reflect.DeepEqual(maintained, reseeded) {
		t.Errorf("re-seed changed the pool:\n maintained %v\n reseeded %v", maintained, reseeded)
	}
}

// TestCheckpointDeterministic pins checkpointImage's bit-identity promise
// at the byte level: re-checkpointing an unchanged worker yields the same
// blob every time, and a worker restored from a blob checkpoints back to
// exactly that blob (pool in entry order, dictionary in id order).
func TestCheckpointDeterministic(t *testing.T) {
	spec := realWorkerSpec(t, 11, 2, 0)
	w, err := NewWorkerState(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Offer(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Ingest(Batch{
		Ins: []EdgeInsert{{Src: 0, Dst: 1, Vals: []graph.Value{1}}, {Src: 2, Dst: 3, Vals: []graph.Value{2}}},
		Del: []EdgeDelete{specDelete(spec, 0)},
	}); err != nil {
		t.Fatal(err)
	}
	if w.pool.len() < 2 {
		t.Fatalf("fixture pool (%d entries) too small to expose ordering", w.pool.len())
	}
	blob, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := w.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatalf("re-checkpoint %d of an unchanged worker differs byte-wise", i)
		}
	}
	r, err := NewWorkerStateFromCheckpoint(spec, blob)
	if err != nil {
		t.Fatal(err)
	}
	back, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, blob) {
		t.Error("restore → Checkpoint does not reproduce the blob")
	}
}

// TestCheckpointRestoredWorkerTracksOriginal pins what version 4's rebuilt
// store must keep: a restored worker is not array-identical to its
// original (its graph drops the dead edges, and its store rows follow a
// fresh build), yet nothing it answers may tell them apart. Over random
// mixed batches that insert duplicates of live edges beside new ones and
// retract live edges by value — duplicates included, so which instance a
// retraction claims matters to the next blob's edge order — a twin
// restored from the original's blob at random points must return every
// IngestReply the never-restored original returns, and checkpoint to the
// same bytes after every batch.
func TestCheckpointRestoredWorkerTracksOriginal(t *testing.T) {
	const seeds, batches = 24, 30
	restores, compacted := 0, 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		spec := realWorkerSpec(t, seed, 2, int(seed%2))
		rng := rand.New(rand.NewSource(seed))
		orig, err := NewWorkerState(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := orig.Offer(nil); err != nil {
			t.Fatal(err)
		}
		restore := func() *WorkerState {
			blob, err := orig.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewWorkerStateFromCheckpoint(spec, blob)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			restores++
			return r
		}
		twin := restore()
		// live is the shard's edge multiset, by value, in no useful order.
		live := make([]EdgeInsert, len(spec.EdgeSrc))
		for i := range live {
			d := specDelete(spec, i)
			live[i] = EdgeInsert{Src: d.Src, Dst: d.Dst, Vals: d.Vals}
		}
		for b := 0; b < batches; b++ {
			var batch Batch
			for i := rng.Intn(6); i > 0 && len(live) > 0; i-- {
				j := rng.Intn(len(live))
				e := live[j]
				batch.Del = append(batch.Del, EdgeDelete{Src: e.Src, Dst: e.Dst, Vals: e.Vals})
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			for i := rng.Intn(6); i > 0; i-- {
				e := EdgeInsert{Src: rng.Intn(spec.NumNodes), Dst: rng.Intn(spec.NumNodes), Vals: []graph.Value{graph.Value(1 + rng.Intn(2))}}
				if len(live) > 0 && rng.Intn(2) == 0 {
					e = live[rng.Intn(len(live))]
				}
				batch.Ins = append(batch.Ins, e)
			}
			live = append(live, batch.Ins...)
			repO, err := orig.Ingest(batch)
			if err != nil {
				t.Fatalf("seed %d batch %d: original: %v", seed, b, err)
			}
			repT, err := twin.Ingest(batch)
			if err != nil {
				t.Fatalf("seed %d batch %d: twin: %v", seed, b, err)
			}
			// The walk counts a different number of histograms when the
			// scoped re-mine's choice between bitmaps and counting sort,
			// which weighs the row width tombstones widen, goes the other
			// way; every count and handle it produces is the same.
			repO.Stats, repT.Stats = Untimed(repO.Stats), Untimed(repT.Stats)
			repO.Stats.PartitionCalls, repT.Stats.PartitionCalls = 0, 0
			if !reflect.DeepEqual(repO, repT) {
				t.Fatalf("seed %d batch %d: replies differ:\n twin %+v\n orig %+v", seed, b, repT, repO)
			}
			blobO, err := orig.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			blobT, err := twin.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blobO, blobT) {
				t.Fatalf("seed %d batch %d: next checkpoints differ (%d and %d bytes)", seed, b, len(blobT), len(blobO))
			}
			if rng.Intn(4) == 0 {
				twin = restore()
			}
		}
		if orig.g.NumEdges() == orig.g.NumLiveEdges() {
			t.Fatalf("seed %d: the original holds no dead edge; the twin never differed from it", seed)
		}
		if orig.st.NumRows() < orig.g.NumEdges() {
			compacted++
		}
	}
	if compacted == 0 {
		t.Error("no original store ever compacted; renumbered rows went untested")
	}
	t.Logf("%d restores, %d of %d originals compacted", restores, compacted, seeds)
}
