package rpc

import (
	"testing"

	"grminer/internal/core"
	"grminer/internal/graph"
)

// fuzzOps are the ops a fuzzed request picks from by index; the last is
// no op at all.
var fuzzOps = []string{OpOffer, OpIngest, OpCounts, OpCheckpoint, OpBuild, OpRestore, "bogus"}

// fuzzEdges decodes a byte string into edges, one per record: source and
// destination as signed bytes (so node ids past either end of the table
// are reachable), a value count mod 4, then that many value bytes. A
// trailing partial record is dropped.
func fuzzEdges(b []byte) []core.EdgeInsert {
	var edges []core.EdgeInsert
	for len(b) >= 3 {
		n := int(b[2] % 4)
		if len(b) < 3+n {
			break
		}
		vals := make([]graph.Value, n)
		for i := range vals {
			vals[i] = graph.Value(b[3+i])
		}
		edges = append(edges, core.EdgeInsert{Src: int(int8(b[0])), Dst: int(int8(b[1])), Vals: vals})
		b = b[3+n:]
	}
	return edges
}

// fuzzBound decodes a byte string into an offer bound's six tables (HL,
// HW, HR, OL, OW, OR, in that order): per table a row count mod 4, per row
// a column count mod 6, then that many entries as signed bytes. Tables the
// bytes run out before are nil, so ragged and missing tables are as
// reachable as well-formed ones.
func fuzzBound(minSupp int, b []byte) *core.OfferBound {
	next := func() (byte, bool) {
		if len(b) == 0 {
			return 0, false
		}
		v := b[0]
		b = b[1:]
		return v, true
	}
	table := func() [][]int {
		rows, ok := next()
		if !ok {
			return nil
		}
		t := make([][]int, rows%4)
		for a := range t {
			cols, _ := next()
			t[a] = make([]int, cols%6)
			for v := range t[a] {
				x, _ := next()
				t[a][v] = int(int8(x))
			}
		}
		return t
	}
	ob := &core.OfferBound{MinSupp: minSupp}
	for _, t := range []*[][]int{&ob.HL, &ob.HW, &ob.HR, &ob.OL, &ob.OW, &ob.OR} {
		*t = table()
	}
	return ob
}

// FuzzShardRequest hardens the daemon's request dispatch: a Request built
// from fuzzed fields — op, slot, insertions, retractions and, when bounded,
// an offer bound's minimum support and tables — is served by serveRequest,
// the function shardd's session loop calls, against a freshly built and
// seeded worker in slot 0. Fuzzing the fields rather than a gob frame keeps
// mutations inside serveRequest: gob rejects nearly every mutated frame
// before it gets there. Whatever the fields, nothing may panic (a panic
// there kills the daemon). An ingest either fails and leaves the worker's
// edge count unchanged, or reports the count the worker holds; a worker
// that served any request can still checkpoint. The checked-in corpus holds
// a real bound, the empty bound that used to crash prune, a valid ingest,
// an ingest naming nodes past the node table and a retraction with too few
// edge values.
func FuzzShardRequest(f *testing.F) {
	nolog := func(string, ...any) {}
	f.Fuzz(func(t *testing.T, op uint8, slot int, ins, del []byte, bounded bool, minSupp int, tables []byte) {
		req := Request{Shard: slot, Op: fuzzOps[int(op)%len(fuzzOps)], Edges: fuzzEdges(ins)}
		for _, e := range fuzzEdges(del) {
			req.Deletes = append(req.Deletes, core.EdgeDelete(e))
		}
		if bounded {
			req.Bound = fuzzBound(minSupp, tables)
		}

		w := fuzzCountsWorker(t)
		if _, _, err := w.Offer(nil); err != nil {
			t.Fatal(err)
		}
		workers := []*core.WorkerState{w}
		before := w.NumEdges()
		rep := serveRequest(workers, req, nolog)
		if req.Op == OpIngest && req.Shard == 0 {
			switch {
			case rep.Err != "" && w.NumEdges() != before:
				t.Fatalf("failed ingest (%s) changed the edge count %d -> %d", rep.Err, before, w.NumEdges())
			case rep.Err == "" && rep.NumEdges != w.NumEdges():
				t.Fatalf("ingest reported %d edges, worker holds %d", rep.NumEdges, w.NumEdges())
			}
		}
		if _, err := workers[0].Checkpoint(); err != nil {
			t.Fatalf("worker cannot checkpoint after a %s request: %v", req.Op, err)
		}
	})
}
