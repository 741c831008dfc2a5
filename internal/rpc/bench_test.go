package rpc

import (
	"bytes"
	"encoding/gob"
	"testing"

	"grminer/internal/core"
	"grminer/internal/datagen"
	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
)

// roundRecorder keeps the last ingest reply and round-2 query of the
// worker it wraps.
type roundRecorder struct {
	*core.WorkerState
	last  core.IngestReply
	query []gr.GR
}

func (r *roundRecorder) Ingest(b core.Batch) (core.IngestReply, error) {
	rep, err := r.WorkerState.Ingest(b)
	r.last = rep
	return rep, err
}

func (r *roundRecorder) Counts(grs []gr.GR) ([]metrics.Counts, error) {
	r.query = append(r.query[:0], grs...)
	return r.WorkerState.Counts(grs)
}

// gateShard0 is shard 0 after the bench gate's mixed batch: the core gate
// fixture (a 1,500-node Pokec-like graph, 2 shards, minSupp |E|/200, nhp ≥
// 0.5, k = 50 with a dynamic floor) ingesting its first 64 edges as
// insertions and retractions at once. It holds the shard's ingest reply and
// the round-2 query the merge then sent it.
func gateShard0(b *testing.B) *roundRecorder {
	b.Helper()
	cfg := datagen.DefaultPokecConfig()
	cfg.Nodes = 1500
	cfg.AvgOutDegree = 6
	g := datagen.Pokec(cfg)
	opt := core.Options{MinSupp: g.NumEdges() / 200, MinScore: 0.5, K: 50, DynamicFloor: true}
	var rec []*roundRecorder
	build := core.WorkerBuilder(func(spec core.WorkerSpec) (core.ShardWorker, error) {
		w, err := core.NewWorkerState(spec)
		if err != nil {
			return nil, err
		}
		r := &roundRecorder{WorkerState: w}
		rec = append(rec, r)
		return r, nil
	})
	var batch core.Batch
	for e := 0; e < 64; e++ {
		vals := append([]graph.Value(nil), g.EdgeValues(e)...)
		batch.Ins = append(batch.Ins, core.EdgeInsert{Src: g.Src(e), Dst: g.Dst(e), Vals: vals})
		batch.Del = append(batch.Del, core.EdgeDelete{Src: g.Src(e), Dst: g.Dst(e), Vals: vals})
	}
	inc, err := core.NewIncrementalShardedFrom(g, opt, core.ShardOptions{Shards: 2}, build)
	if err != nil {
		b.Fatal(err)
	}
	defer inc.Close()
	rec[0].query = nil
	if _, _, err := inc.ApplyBatch(batch); err != nil {
		b.Fatal(err)
	}
	if len(rec[0].last.Deltas) == 0 || len(rec[0].query) == 0 {
		b.Fatal("gate batch produced no shard 0 deltas or round-2 query")
	}
	return rec[0]
}

// BenchmarkIngestReplyWire is the bench gate on the remote ingest path:
// one gob round trip — daemon-side encode, coordinator-side decode — of a
// realistic ingest reply over a session's long-lived encoder and decoder,
// as a shardd connection carries it. The in-process gate benchmarks never
// encode, so this and BenchmarkCountsWire are the only allocation budgets
// on the wire path.
func BenchmarkIngestReplyWire(b *testing.B) {
	msg := Reply{Ingest: gateShard0(b).last}
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	// The first message on a session also carries gob's type descriptors;
	// steady state is every later one, whose size is reported as B/reply.
	size := 0
	for i := 0; i < 2; i++ {
		if err := enc.Encode(msg); err != nil {
			b.Fatal(err)
		}
		size = buf.Len()
		var out Reply
		if err := dec.Decode(&out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(msg); err != nil {
			b.Fatal(err)
		}
		var out Reply
		if err := dec.Decode(&out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size), "B/reply")
}

// BenchmarkCountsWire is the bench gate on the round-2 wire path: the gate
// batch's shard-0 count query and its answer, each way through a session's
// long-lived gob encoder and decoder — the client packs the query, the
// daemon decodes and unpacks it and packs the counts, the client decodes
// and unpacks them. Counting itself is BenchmarkWorkerCounts's budget, so
// the counts are computed once up front. B/query is the steady-state size
// of one request plus its reply.
func BenchmarkCountsWire(b *testing.B) {
	w := gateShard0(b)
	counts, err := w.WorkerState.Counts(w.query)
	if err != nil {
		b.Fatal(err)
	}
	m := w.Metric()
	var reqBuf, repBuf bytes.Buffer
	reqEnc, reqDec := gob.NewEncoder(&reqBuf), gob.NewDecoder(&reqBuf)
	repEnc, repDec := gob.NewEncoder(&repBuf), gob.NewDecoder(&repBuf)
	trip := func() int {
		q, err := gr.PackColumns(w.query)
		if err != nil {
			b.Fatal(err)
		}
		if err := reqEnc.Encode(Request{Op: OpCounts, Query: CountQuery(q)}); err != nil {
			b.Fatal(err)
		}
		size := reqBuf.Len()
		var req Request
		if err := reqDec.Decode(&req); err != nil {
			b.Fatal(err)
		}
		if _, err := gr.Columns(req.Query).Unpack(); err != nil {
			b.Fatal(err)
		}
		if err := repEnc.Encode(Reply{Counts: packCountColumns(m, counts), NumEdges: w.NumEdges()}); err != nil {
			b.Fatal(err)
		}
		size += repBuf.Len()
		var rep Reply
		if err := repDec.Decode(&rep); err != nil {
			b.Fatal(err)
		}
		if _, err := rep.Counts.unpack(len(w.query), rep.NumEdges); err != nil {
			b.Fatal(err)
		}
		return size
	}
	// The first exchange also carries gob's type descriptors.
	trip()
	size := trip()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip()
	}
	b.ReportMetric(float64(size), "B/query")
}
