package rpc

import (
	"bytes"
	"encoding/gob"
	"testing"

	"grminer/internal/core"
	"grminer/internal/gr"
	"grminer/internal/graph"
)

// fuzzCountsWorker is a one-shard nhp worker over a fixed 12-node graph:
// node attributes A (domain 3, homophilous) and B (domain 2), edge
// attribute W (domain 2).
func fuzzCountsWorker(t testing.TB) *core.WorkerState {
	t.Helper()
	spec := core.WorkerSpec{
		NodeAttrs: []graph.Attribute{{Name: "A", Domain: 3, Homophily: true}, {Name: "B", Domain: 2}},
		EdgeAttrs: []graph.Attribute{{Name: "W", Domain: 2}},
		NumNodes:  12,
		Opt:       core.Options{MinSupp: 2, MinScore: 0.1, K: 10}.Wire(),
		Shards:    1, ShardMinSupp: 1,
	}
	for v := 0; v < 12; v++ {
		spec.NodeVals = append(spec.NodeVals, graph.Value(v%4), graph.Value(v%3))
	}
	for e := 0; e < 40; e++ {
		spec.EdgeSrc = append(spec.EdgeSrc, int32(e%12))
		spec.EdgeDst = append(spec.EdgeDst, int32((5*e+3)%12))
		spec.EdgeVals = append(spec.EdgeVals, graph.Value(e%3))
	}
	w, err := core.NewWorkerState(spec)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// FuzzCountsRequest hardens the daemon's counts path: bytes decoded by gob
// as the packed query of a counts request (Request.Query), unpacked,
// checked against the schema and counted on a real worker, exactly as the
// daemon serves it. Whatever the bytes, the daemon must not panic; a query
// it answers must get columns aligned with it whose counts equal the
// worker's answer for each GR on its own (so the batch's L∧W reuse is
// checked too). Inputs are the query alone, not the whole Request frame:
// the frame's type descriptors for every other op would make up nearly all
// of each input.
func FuzzCountsRequest(f *testing.F) {
	w := fuzzCountsWorker(f)
	f.Fuzz(func(t *testing.T, frame []byte) {
		var q CountQuery
		if err := gob.NewDecoder(bytes.NewReader(frame)).Decode(&q); err != nil {
			return
		}
		cols, err := answerCounts(w, q)
		if err != nil {
			return
		}
		grs, err := gr.Columns(q).Unpack()
		if err != nil {
			t.Fatalf("answered a query that does not unpack: %v", err)
		}
		got, err := cols.unpack(len(grs), w.NumEdges())
		if err != nil {
			t.Fatalf("reply to a %d-GR query: %v", len(grs), err)
		}
		for i, g := range grs {
			want, err := w.Counts([]gr.GR{g})
			if err != nil || got[i] != want[0] {
				t.Fatalf("GR %d %v: batch counts %+v, alone %+v (%v)", i, g, got[i], want, err)
			}
		}
	})
}
