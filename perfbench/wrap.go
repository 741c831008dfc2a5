package main

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"grminer/internal/core"
	"grminer/internal/gr"
	"grminer/internal/metrics"
	"grminer/internal/rpc"
)

// The decorators in this file time calls into a layer from outside, through
// the layer's public interfaces, and record spans and counters on the traced
// operation in flight. Each forwards every method the wrapped value offers
// the caller, so the program behaves as deployed.

// tracedEngine wraps the incremental engine handed to serve.New. It is a
// serve.Engine and a serve.Explainer, like the engine it wraps.
type tracedEngine struct {
	inc *core.Incremental
	tr  *tracer

	mu    sync.Mutex
	stats []core.IncStats // one per traced ApplyBatch
	res   []core.Stats
}

func (e *tracedEngine) ApplyBatch(b core.Batch) (*core.Result, core.IncStats, error) {
	sp := e.tr.begin("core.ApplyBatch", layerCore)
	res, st, err := e.inc.ApplyBatch(b)
	sp.end()
	if sp != nil && err == nil {
		e.mu.Lock()
		e.stats = append(e.stats, st)
		e.res = append(e.res, res.Stats)
		e.mu.Unlock()
	}
	return res, st, err
}

func (e *tracedEngine) Explain(q gr.GR) (metrics.Counts, bool) {
	sp := e.tr.begin("serve.Explain", layerServe)
	c, ok := e.inc.Explain(q)
	sp.end()
	return c, ok
}

func (e *tracedEngine) Result() *core.Result      { return e.inc.Result() }
func (e *tracedEngine) Options() core.Options     { return e.inc.Options() }
func (e *tracedEngine) Cumulative() core.IncStats { return e.inc.Cumulative() }

// tracedHandler opens a serve-layer span around every ingest request the
// server handles, so the engine's spans nest under it and the client round
// trip outside it counts as unaccounted transport.
func tracedHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/ingest" {
			h.ServeHTTP(w, r)
			return
		}
		sp := tr.begin("serve.ingest", layerServe)
		exit := sp.enter()
		h.ServeHTTP(w, r)
		exit()
		sp.end()
	})
}

// shardCounters are the counts the fleet decorators collect. Deltas and
// GRs count traced operations only; checkpoints are kept whenever they
// happen, since the supervisor takes them on its own cadence.
type shardCounters struct {
	deltas    atomic.Int64 // pool deltas returned by Ingest
	countsGRs atomic.Int64 // GRs asked for in round-2 Counts

	mu       sync.Mutex
	chkTimes samples
	chkBytes []int
}

// tracedFleet wraps the rpc.Fleet handed to core.NewIncrementalShardedFrom.
// It keeps the fleet's Rebuild and RebuildRestore, so the coordinator still
// wraps every worker in a replay supervisor with the deployed checkpoint
// cadence, and the workers it returns forward core.Checkpointer.
type tracedFleet struct {
	f  *rpc.Fleet
	tr *tracer
	c  *shardCounters
}

func (f *tracedFleet) wrap(w core.ShardWorker, err error) (core.ShardWorker, error) {
	if err != nil {
		return nil, err
	}
	return &tracedWorker{w: w, tr: f.tr, c: f.c}, nil
}

func (f *tracedFleet) Build(spec core.WorkerSpec) (core.ShardWorker, error) {
	return f.wrap(f.f.Build(spec))
}

func (f *tracedFleet) Rebuild(spec core.WorkerSpec) (core.ShardWorker, error) {
	return f.wrap(f.f.Rebuild(spec))
}

func (f *tracedFleet) RebuildRestore(spec core.WorkerSpec, blob []byte) (core.ShardWorker, error) {
	return f.wrap(f.f.RebuildRestore(spec, blob))
}

// tracedWorker times one shard's round trips.
type tracedWorker struct {
	w  core.ShardWorker
	tr *tracer
	c  *shardCounters
}

func (w *tracedWorker) NumEdges() int { return w.w.NumEdges() }
func (w *tracedWorker) Close() error  { return w.w.Close() }

func (w *tracedWorker) Offer(bound *core.OfferBound) ([]core.ShardCandidate, core.Stats, error) {
	sp := w.tr.begin("rpc.Offer", layerRPC)
	defer sp.end()
	return w.w.Offer(bound)
}

func (w *tracedWorker) Counts(grs []gr.GR) ([]metrics.Counts, error) {
	sp := w.tr.begin("rpc.Counts", layerRPC)
	c, err := w.w.Counts(grs)
	sp.end()
	if sp != nil {
		w.c.countsGRs.Add(int64(len(grs)))
	}
	return c, err
}

func (w *tracedWorker) Ingest(b core.Batch) (core.IngestReply, error) {
	sp := w.tr.begin("rpc.Ingest", layerRPC)
	rep, err := w.w.Ingest(b)
	sp.end()
	if sp != nil {
		w.c.deltas.Add(int64(len(rep.Deltas)))
	}
	return rep, err
}

// Checkpoint forwards core.Checkpointer; a worker without it fails the
// call, which the supervisor treats exactly like a worker that lacks it.
func (w *tracedWorker) Checkpoint() ([]byte, error) {
	cp, ok := w.w.(core.Checkpointer)
	if !ok {
		return nil, fmt.Errorf("perfbench: worker %T cannot checkpoint", w.w)
	}
	sp := w.tr.begin("rpc.Checkpoint", layerRPC)
	t0 := time.Now()
	blob, err := cp.Checkpoint()
	d := time.Since(t0)
	sp.end()
	w.c.mu.Lock()
	w.c.chkTimes = append(w.c.chkTimes, d)
	w.c.chkBytes = append(w.c.chkBytes, len(blob))
	w.c.mu.Unlock()
	return blob, err
}

// Addr forwards the daemon address health reports name.
func (w *tracedWorker) Addr() string {
	if a, ok := w.w.(interface{ Addr() string }); ok {
		return a.Addr()
	}
	return ""
}

// countingListener counts every byte read from and written to the
// connections it accepts: the fleet's traffic, seen from the daemon side.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, bytes: l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}
