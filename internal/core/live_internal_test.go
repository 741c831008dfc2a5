package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"grminer/internal/dataset"
	"grminer/internal/graph"
)

// TestNaNMinScoreFailsClosed: a NaN MinScore fails every comparison, so no
// threshold test agrees with another and a mine that accepted one walked
// into rows it never scattered. Every engine's constructor must refuse it
// with an error, not a panic.
func TestNaNMinScoreFailsClosed(t *testing.T) {
	opt := Options{MinSupp: 1, MinScore: math.NaN(), K: 5}
	spec := realWorkerSpec(t, 3, 2, 0)
	spec.Opt.MinScore = math.NaN()
	cases := []struct {
		name string
		run  func() error
	}{
		{"Mine", func() error { _, err := Mine(dataset.ToyDating(), opt); return err }},
		{"NewIncremental", func() error { _, err := NewIncremental(dataset.ToyDating(), opt); return err }},
		{"NewIncrementalSharded", func() error {
			_, err := NewIncrementalSharded(dataset.ToyDating(), opt, ShardOptions{Shards: 2})
			return err
		}},
		{"NewWorkerState", func() error { _, err := NewWorkerState(spec); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			if err := c.run(); err == nil {
				t.Fatal("NaN MinScore accepted")
			}
		})
	}
}

// TestWorkerIngestRejectsMalformedSliceAtomically: shardd takes batch
// slices from the network, so the worker itself must validate a whole
// slice before any state changes. Each malformed slice — every one of them
// beside a well-formed insert or retraction — must error and leave the
// next checkpoint byte-identical; so must an Ingest before the seeding
// Offer(nil). Afterwards a good slice is accepted and answers exactly as on
// a twin worker that never saw the rejected ones.
func TestWorkerIngestRejectsMalformedSliceAtomically(t *testing.T) {
	spec := realWorkerSpec(t, 7, 2, 0)
	w, err := NewWorkerState(spec)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewWorkerState(spec)
	if err != nil {
		t.Fatal(err)
	}
	blob := func() []byte {
		t.Helper()
		b, err := w.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	reject := func(label string, b Batch) {
		t.Helper()
		before := blob()
		if _, err := w.Ingest(b); err == nil {
			t.Fatalf("%s: slice accepted", label)
		}
		if !bytes.Equal(blob(), before) {
			t.Fatalf("%s: the rejected slice changed the worker's checkpoint", label)
		}
	}

	good := EdgeInsert{Src: 0, Dst: 1, Vals: []graph.Value{1}}
	live := specDelete(spec, 0)
	reject("ingest before seed", Batch{Ins: []EdgeInsert{good}})
	for _, x := range []*WorkerState{w, twin} {
		if _, _, err := x.Offer(nil); err != nil {
			t.Fatal(err)
		}
	}

	// An endpoint pair no shard edge joins, so retracting it matches nothing.
	var absent EdgeDelete
	for src := 0; src < spec.NumNodes && absent.Vals == nil; src++ {
		for dst := 0; dst < spec.NumNodes; dst++ {
			found := false
			for i := range spec.EdgeSrc {
				found = found || int(spec.EdgeSrc[i]) == src && int(spec.EdgeDst[i]) == dst
			}
			if !found {
				absent = EdgeDelete{Src: src, Dst: dst, Vals: []graph.Value{1}}
				break
			}
		}
	}
	if absent.Vals == nil {
		t.Fatal("fixture shard joins every node pair")
	}
	bad := []struct {
		label string
		b     Batch
	}{
		{"out-of-range endpoint", Batch{Ins: []EdgeInsert{good, {Src: 0, Dst: spec.NumNodes + 3, Vals: []graph.Value{1}}}}},
		{"negative endpoint", Batch{Ins: []EdgeInsert{{Src: -1, Dst: 0, Vals: []graph.Value{1}}}, Del: []EdgeDelete{live}}},
		{"wrong value count", Batch{Ins: []EdgeInsert{good, {Src: 0, Dst: 1, Vals: []graph.Value{1, 1}}}}},
		{"missing value", Batch{Ins: []EdgeInsert{{Src: 0, Dst: 1}}, Del: []EdgeDelete{live}}},
		{"out-of-domain value", Batch{Ins: []EdgeInsert{good, {Src: 0, Dst: 1, Vals: []graph.Value{9}}}}},
		{"unmatched retraction", Batch{Ins: []EdgeInsert{good}, Del: []EdgeDelete{live, absent}}},
		{"retraction value count", Batch{Del: []EdgeDelete{live, {Src: live.Src, Dst: live.Dst}}}},
	}
	for _, c := range bad {
		reject(c.label, c.b)
	}

	ok := Batch{Ins: []EdgeInsert{good}, Del: []EdgeDelete{live}}
	rep, err := w.Ingest(ok)
	if err != nil {
		t.Fatalf("good slice after the rejections: %v", err)
	}
	want, err := twin.Ingest(ok)
	if err != nil {
		t.Fatal(err)
	}
	rep.Stats, want.Stats = Untimed(rep.Stats), Untimed(want.Stats)
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("reply after rejections differs from the twin's:\n got %+v\nwant %+v", rep, want)
	}
	twinBlob, err := twin.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob(), twinBlob) {
		t.Fatal("checkpoint after rejections differs from the twin's")
	}
}
