package rpc_test

import (
	"bytes"
	"encoding/gob"
	"testing"

	"grminer/internal/core"
	"grminer/internal/datagen"
	"grminer/internal/graph"
	"grminer/internal/rpc"
)

// replyRecorder keeps the last ingest reply of the worker it wraps.
type replyRecorder struct {
	core.ShardWorker
	last core.IngestReply
}

func (r *replyRecorder) Ingest(b core.Batch) (core.IngestReply, error) {
	rep, err := r.ShardWorker.Ingest(b)
	r.last = rep
	return rep, err
}

// gateIngestReply is shard 0's reply to the bench gate's mixed batch: the
// core gate fixture (a 1,500-node Pokec-like graph, 2 shards, minSupp
// |E|/200, nhp ≥ 0.5, k = 50 with a dynamic floor) ingesting its first 64
// edges as insertions and retractions at once.
func gateIngestReply(b *testing.B) core.IngestReply {
	b.Helper()
	cfg := datagen.DefaultPokecConfig()
	cfg.Nodes = 1500
	cfg.AvgOutDegree = 6
	g := datagen.Pokec(cfg)
	opt := core.Options{MinSupp: g.NumEdges() / 200, MinScore: 0.5, K: 50, DynamicFloor: true}
	var rec []*replyRecorder
	build := core.WorkerBuilder(func(spec core.WorkerSpec) (core.ShardWorker, error) {
		w, err := core.InProcessWorkers(spec)
		if err != nil {
			return nil, err
		}
		r := &replyRecorder{ShardWorker: w}
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
	if _, _, err := inc.ApplyBatch(batch); err != nil {
		b.Fatal(err)
	}
	if len(rec[0].last.Deltas) == 0 {
		b.Fatal("gate batch produced no shard 0 deltas")
	}
	return rec[0].last
}

// BenchmarkIngestReplyWire is the bench gate on the remote ingest path:
// one gob round trip — daemon-side encode, coordinator-side decode — of a
// realistic ingest reply over a session's long-lived encoder and decoder,
// as a shardd connection carries it. The in-process gate benchmarks never
// encode, so this is the only allocation budget on the wire path.
func BenchmarkIngestReplyWire(b *testing.B) {
	msg := rpc.Reply{Ingest: gateIngestReply(b)}
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
		var out rpc.Reply
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
		var out rpc.Reply
		if err := dec.Decode(&out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size), "B/reply")
}
