package core

import (
	"strings"
	"testing"

	"grminer/internal/graph"
)

// TestUnmatchedRetractionErrorNamesLowest applies a batch of three
// unmatched retractions, each on its own endpoint pair, through every
// engine that resolves retractions, 50 times each: the rejection must name
// retraction 0 every time, not whichever pending pair the resolver's map
// happens to yield first.
func TestUnmatchedRetractionErrorNamesLowest(t *testing.T) {
	// Every fixture edge carries a non-null edge value, so a null-valued
	// retraction matches nothing.
	null := []graph.Value{0}
	witnessBase := []edgeRun{{wS11, wD1, 3, 1}, {wS22, wD1, 3, 1}, {wS12, wD2, 3, 1}}
	witnessDels := []EdgeDelete{
		{Src: wS11, Dst: wD1, Vals: null}, {Src: wS22, Dst: wD1, Vals: null}, {Src: wS12, Dst: wD2, Vals: null},
	}
	opt := Options{MinSupp: 1, MinScore: 0.1, K: 5}

	inc, err := NewIncremental(witnessGraph(t, witnessBase), opt)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewIncrementalSharded(witnessGraph(t, witnessBase), opt, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	w, err := NewWorkerState(realWorkerSpec(t, 11, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Offer(nil); err != nil {
		t.Fatal(err)
	}
	workerDels := []EdgeDelete{{Src: 0, Dst: 1, Vals: null}, {Src: 2, Dst: 3, Vals: null}, {Src: 4, Dst: 5, Vals: null}}

	for _, c := range []struct {
		name  string
		apply func() error
	}{
		{"Incremental", func() error {
			_, _, err := inc.ApplyBatch(Batch{Del: witnessDels})
			return err
		}},
		{"IncrementalSharded", func() error {
			_, _, err := sharded.ApplyBatch(Batch{Del: witnessDels})
			return err
		}},
		{"WorkerState", func() error {
			_, err := w.Ingest(Batch{Del: workerDels})
			return err
		}},
	} {
		msgs := map[string]int{}
		for range 50 {
			err := c.apply()
			if err == nil {
				t.Fatalf("%s accepted unmatched retractions", c.name)
			}
			msgs[err.Error()]++
		}
		if len(msgs) != 1 {
			t.Errorf("%s: %d distinct rejections of one batch: %v", c.name, len(msgs), msgs)
		}
		for msg := range msgs {
			if !strings.Contains(msg, "retraction 0:") {
				t.Errorf("%s: rejection %q does not name retraction 0", c.name, msg)
			}
		}
	}
}
