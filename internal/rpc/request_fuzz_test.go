package rpc

import (
	"bytes"
	"encoding/gob"
	"testing"

	"grminer/internal/core"
)

// FuzzShardRequest hardens the daemon's request dispatch: bytes decoded by
// gob as a whole Request frame are served by serveRequest — the function
// shardd's session loop calls — as an offer and then as an ingest, against
// a freshly built and seeded worker in the frame's slot. Whatever the
// bytes, nothing may panic (a panic there kills the daemon). An ingest
// either fails and leaves the worker's edge count unchanged, or reports the
// count the worker holds. The checked-in corpus holds a real bound, the
// empty bound that used to crash prune, a valid ingest, an ingest naming
// nodes past the node table and a retraction with too few edge values.
func FuzzShardRequest(f *testing.F) {
	nolog := func(string, ...any) {}
	f.Fuzz(func(t *testing.T, frame []byte) {
		var req Request
		if err := gob.NewDecoder(bytes.NewReader(frame)).Decode(&req); err != nil {
			return
		}
		w := fuzzCountsWorker(t)
		if _, _, err := w.Offer(nil); err != nil {
			t.Fatal(err)
		}
		workers := []*core.WorkerState{w}
		req.Op = OpOffer
		serveRequest(workers, req, nolog)

		before := w.NumEdges()
		req.Op = OpIngest
		rep := serveRequest(workers, req, nolog)
		switch {
		case rep.Err != "" && w.NumEdges() != before:
			t.Fatalf("failed ingest (%s) changed the edge count %d -> %d", rep.Err, before, w.NumEdges())
		case rep.Err == "" && rep.NumEdges != w.NumEdges():
			t.Fatalf("ingest reported %d edges, worker holds %d", rep.NumEdges, w.NumEdges())
		}
	})
}
