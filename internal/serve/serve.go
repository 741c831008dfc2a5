// Package serve is grminerd's HTTP layer: the versioned /v1 JSON API over a
// live incremental mining engine, built for heavy read traffic under a
// continuous ingest stream.
//
// Read/write isolation is RCU-style: after every applied batch the writer
// builds an immutable Snapshot (epoch, cloned top-k, explain counts) and
// publishes it with one atomic pointer store. Snapshot readers (GET
// /v1/topk, /v1/rules, /v1/status, the SSE event stream) are wait-free —
// they load the pointer and never take a lock, so they can never block the
// miner or observe a half-applied batch. Only queries that must scan the
// graph itself (recommend, propagate, explain-by-rescan) share an RWMutex
// with the ingest path.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"grminer/internal/core"
	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
	"grminer/internal/propagate"
	"grminer/internal/recommend"
	"grminer/internal/serve/apiv1"
	"grminer/internal/topk"
)

// Engine is the mining surface the server drives: any incremental engine
// variant (grminer.Engine, core.Incremental, core.IncrementalSharded)
// satisfies it.
type Engine interface {
	ApplyBatch(core.Batch) (*core.Result, core.IncStats, error)
	Result() *core.Result
	Options() core.Options
	Cumulative() core.IncStats
}

// Explainer is optionally satisfied by engines that maintain exact per-rule
// counts (the single-store incremental pool); the server then serves
// explain counts straight from the snapshot instead of rescanning.
type Explainer interface {
	Explain(gr.GR) (metrics.Counts, bool)
}

// FleetReporter is optionally satisfied by sharded engines that track
// per-worker failover health (grminer.Engine, core.IncrementalSharded); the
// server then exposes the fleet in GET /v1/status. Health is captured into
// each snapshot under the write lock, so status reads stay wait-free.
type FleetReporter interface {
	FleetHealth() []core.WorkerHealth
}

// Snapshot is one published, immutable view of the mining state. Everything
// reachable from it is owned by the snapshot alone (cloned at publish
// time); readers may hold it indefinitely.
type Snapshot struct {
	// Epoch increases by exactly one per applied batch, starting at 1 for
	// the seed mine.
	Epoch uint64
	// TopK is the ranked rule list, cloned from the engine.
	TopK []gr.Scored
	// Counts[i] holds TopK[i]'s maintained counts when HasCounts[i].
	Counts    []metrics.Counts
	HasCounts []bool
	// TotalEdges is the live edge count the snapshot was mined over.
	TotalEdges int
	// Options are the engine's effective mining options.
	Options core.Options
	// Cumulative are lifetime ingest totals at publish time.
	Cumulative core.IncStats
	// Changed counts top-k entries new or re-scored vs the previous epoch.
	Changed int
	// Digest fingerprints (Epoch, TopK); the race stress test recomputes
	// it reader-side to prove snapshots are never observed torn.
	Digest uint64
	// Fleet is the sharded engine's per-worker failover health at publish
	// time (nil for single-store engines).
	Fleet []core.WorkerHealth

	schema *graph.Schema
}

// digest folds the snapshot's identity into one comparable word.
func (s *Snapshot) digest() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h = (h ^ v) * prime
	}
	mix(s.Epoch)
	mix(uint64(s.TotalEdges))
	for i := range s.TopK {
		for _, b := range []byte(s.TopK[i].GR.Key()) {
			mix(uint64(b))
		}
		mix(uint64(s.TopK[i].Supp))
		mix(uint64(int64(s.TopK[i].Score * 1e12)))
	}
	return h
}

// VerifyDigest recomputes the published digest; false means the reader
// observed a torn snapshot (must be impossible).
func (s *Snapshot) VerifyDigest() bool { return s.digest() == s.Digest }

// Server wires an Engine to the /v1 handler set.
type Server struct {
	eng   Engine
	g     *graph.Graph
	exp   Explainer     // nil when the engine maintains no per-rule counts
	fleet FleetReporter // nil when the engine tracks no worker fleet

	// mu guards the engine and its graph: ingest takes the write lock,
	// graph-scanning queries the read lock. Snapshot reads take neither.
	mu   sync.RWMutex
	snap atomic.Pointer[Snapshot]

	subMu   sync.Mutex
	subs    map[int]chan apiv1.Event
	nextSub int

	// droppedEvents counts drift events discarded because a subscriber's
	// buffer was full; surfaced in /v1/status so operators can spot slow
	// SSE consumers.
	droppedEvents atomic.Int64
}

// New wraps an incremental engine (which owns g) and publishes epoch 1 from
// its seed mine.
func New(eng Engine, g *graph.Graph) *Server {
	s := &Server{eng: eng, g: g, subs: make(map[int]chan apiv1.Event)}
	if exp, ok := eng.(Explainer); ok {
		s.exp = exp
	}
	if fr, ok := eng.(FleetReporter); ok {
		s.fleet = fr
	}
	s.snap.Store(s.buildSnapshot(eng.Result(), nil))
	return s
}

// Snapshot returns the currently published snapshot (wait-free).
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// buildSnapshot clones res into an immutable snapshot following prev.
// Callers must hold the write lock (or be the constructor): Explain only
// looks GRs up, but it reads the pool and dictionary that ApplyBatch
// mutates.
func (s *Server) buildSnapshot(res *core.Result, prev *Snapshot) *Snapshot {
	snap := &Snapshot{
		Epoch:      1,
		TopK:       append([]gr.Scored(nil), res.TopK...),
		TotalEdges: res.TotalEdges,
		Options:    res.Options,
		Cumulative: s.eng.Cumulative(),
		schema:     s.g.Schema(),
	}
	if prev != nil {
		snap.Epoch = prev.Epoch + 1
		snap.Changed = topk.ChangedFrom(prev.TopK, snap.TopK)
	}
	snap.Counts = make([]metrics.Counts, len(snap.TopK))
	snap.HasCounts = make([]bool, len(snap.TopK))
	if s.exp != nil {
		for i := range snap.TopK {
			snap.Counts[i], snap.HasCounts[i] = s.exp.Explain(snap.TopK[i].GR)
		}
	}
	if s.fleet != nil {
		snap.Fleet = s.fleet.FleetHealth()
	}
	snap.Digest = snap.digest()
	return snap
}

// Ingest applies one batch atomically and publishes the next epoch. It is
// the single write path; concurrent callers serialize on the write lock.
func (s *Server) Ingest(b core.Batch) (*Snapshot, core.IncStats, error) {
	s.mu.Lock()
	res, stats, err := s.eng.ApplyBatch(b)
	if err != nil {
		s.mu.Unlock()
		return nil, stats, err
	}
	snap := s.buildSnapshot(res, s.snap.Load())
	s.snap.Store(snap)
	s.mu.Unlock()

	s.broadcast(apiv1.Event{
		Epoch:      snap.Epoch,
		Changed:    snap.Changed,
		TotalEdges: snap.TotalEdges,
		Edges:      stats.Edges,
		Deletes:    stats.Deleted,
	})
	return snap, stats, nil
}

// broadcast fans one drift event out to every subscriber, dropping it for
// subscribers whose buffer is full (a slow SSE client must not block
// ingest).
func (s *Server) broadcast(ev apiv1.Event) {
	s.subMu.Lock()
	for _, ch := range s.subs {
		select {
		case ch <- ev:
		default:
			s.droppedEvents.Add(1)
		}
	}
	s.subMu.Unlock()
}

// subscribe registers an event channel; the returned cancel removes it.
func (s *Server) subscribe() (<-chan apiv1.Event, func()) {
	ch := make(chan apiv1.Event, 16)
	s.subMu.Lock()
	id := s.nextSub
	s.nextSub++
	s.subs[id] = ch
	s.subMu.Unlock()
	return ch, func() {
		s.subMu.Lock()
		delete(s.subs, id)
		s.subMu.Unlock()
	}
}

// Handler returns the /v1 route set.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/topk", s.handleTopK)
	mux.HandleFunc("GET /v1/rules/{id}", s.handleRule)
	mux.HandleFunc("POST /v1/recommend", s.handleRecommend)
	mux.HandleFunc("POST /v1/propagate", s.handlePropagate)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiv1.Error{Error: fmt.Sprintf(format, args...), Code: status})
}

// MaxPropagateIter caps POST /v1/propagate's max_iter at ten times the
// default of 100 sweeps. Every sweep runs under the ingest lock.
const MaxPropagateIter = 1000

// MaxBodyBytes caps every POST body. It sits far above any batch a live
// stream sends (a +64/−16 ingest is ~5 KB of JSON), so only a hostile or
// broken client reaches it; the request is then refused with 413 before
// the engine sees any of it.
const MaxBodyBytes = 8 << 20

// ReadHeaderTimeout is the header deadline for an http.Server hosting
// Handler: a client that opens a connection but dribbles its request line
// and headers is cut off instead of holding the connection indefinitely.
const ReadHeaderTimeout = 10 * time.Second

// readJSON strictly decodes one JSON body of at most MaxBodyBytes into v.
// On failure it answers the request — 413 for an oversized body, 400
// otherwise, naming the request kind — and returns false.
func readJSON(w http.ResponseWriter, r *http.Request, kind string, v any) bool {
	err := decodeJSON(http.MaxBytesReader(w, r.Body, MaxBodyBytes), v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeErr(w, http.StatusRequestEntityTooLarge, "%s request body exceeds %d bytes", kind, tooBig.Limit)
	default:
		writeErr(w, http.StatusBadRequest, "bad %s request: %v", kind, err)
	}
	return false
}

// decodeJSON strictly decodes one JSON body into v.
func decodeJSON(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); !errors.Is(err, io.EOF) {
		if errors.As(err, new(*http.MaxBytesError)) {
			return err
		}
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	rules := snap.TopK
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "limit must be a non-negative integer, got %q", q)
			return
		}
		if n < len(rules) {
			rules = rules[:n]
		}
	}
	out := apiv1.TopKResponse{
		Epoch:      snap.Epoch,
		TotalEdges: snap.TotalEdges,
		Metric:     apiv1.MetricName(snap.Options),
		K:          snap.Options.K,
		Rules:      make([]apiv1.Rule, 0, len(rules)),
	}
	for i, sc := range rules {
		out.Rules = append(out.Rules, apiv1.RuleFromScored(i+1, sc, snap.schema))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRule(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	rank, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "rule id must be a 1-based rank, got %q", r.PathValue("id"))
		return
	}
	if rank < 1 || rank > len(snap.TopK) {
		writeErr(w, http.StatusNotFound, "rank %d not in the current top-%d (epoch %d)", rank, len(snap.TopK), snap.Epoch)
		return
	}
	sc := snap.TopK[rank-1]
	counts, source := snap.Counts[rank-1], "pool"
	if !snap.HasCounts[rank-1] {
		// The engine keeps no per-rule counts (the sharded variants):
		// recompute by a full scan under the read lock so ingest cannot
		// mutate the graph mid-scan.
		s.mu.RLock()
		counts = metrics.Eval(s.g, sc.GR)
		s.mu.RUnlock()
		source = "scan"
	}
	writeJSON(w, http.StatusOK, apiv1.RuleResponse{
		Rule:         apiv1.RuleFromScored(rank, sc, snap.schema),
		Epoch:        snap.Epoch,
		Counts:       apiv1.CountsFrom(counts),
		CountsSource: source,
		Nhp:          metrics.Nhp(counts),
		Trivial:      sc.GR.Trivial(snap.schema),
	})
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req apiv1.RecommendRequest
	if !readJSON(w, r, "recommend", &req) {
		return
	}
	if (req.Node == nil) == (req.RHS == "") {
		writeErr(w, http.StatusBadRequest, "exactly one of node / rhs selects the query")
		return
	}
	snap := s.snap.Load()
	out := apiv1.RecommendResponse{Epoch: snap.Epoch}

	// The recommender scans the live graph, so it shares the read lock
	// with ingest; the rule set comes from the immutable snapshot.
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec := recommend.New(s.g, snap.TopK)
	out.Rules = rec.Rules()
	if req.Node != nil {
		suggestions, err := rec.ForNode(*req.Node, req.TopN)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		out.Suggestions = make([]apiv1.Suggestion, 0, len(suggestions))
		for _, sg := range suggestions {
			dto := apiv1.Suggestion{
				RHS:      gr.GR{R: sg.R}.Format(snap.schema),
				Score:    sg.Score,
				Evidence: sg.Evidence,
				Rules:    make([]string, 0, len(sg.Rules)),
			}
			for _, rule := range sg.Rules {
				dto.Rules = append(dto.Rules, rule.Format(snap.schema))
			}
			out.Suggestions = append(out.Suggestions, dto)
		}
	} else {
		rhs, err := gr.ParseDescriptor(snap.schema.Node, req.RHS)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad rhs: %v", err)
			return
		}
		prospects, err := rec.Campaign(rhs, req.TopN)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		out.Prospects = make([]apiv1.Prospect, 0, len(prospects))
		for _, p := range prospects {
			out.Prospects = append(out.Prospects, apiv1.Prospect{Node: p.Node, Score: p.Score, Evidence: p.Evidence})
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handlePropagate(w http.ResponseWriter, r *http.Request) {
	var req apiv1.PropagateRequest
	if !readJSON(w, r, "propagate", &req) {
		return
	}
	// The run holds the ingest lock for every sweep, so its length is
	// bounded up front: a sweep count past the cap, or a tolerance no sweep
	// can meet, would block ingest for as long as the client asked.
	if req.MaxIter < 0 || req.MaxIter > MaxPropagateIter {
		writeErr(w, http.StatusBadRequest, "max_iter %d outside [0, %d]", req.MaxIter, MaxPropagateIter)
		return
	}
	if req.Tol < 0 {
		writeErr(w, http.StatusBadRequest, "negative tol %g can never be met", req.Tol)
		return
	}
	snap := s.snap.Load()

	s.mu.RLock()
	defer s.mu.RUnlock()
	var influence [][]float64
	var err error
	if req.FromRules {
		influence, err = propagate.InfluenceFromGRs(snap.schema, req.Attr, snap.TopK)
	} else {
		influence, err = propagate.InfluenceMatrix(s.g, req.Attr)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := propagate.Run(s.g, influence, propagate.Config{
		Attr:    req.Attr,
		Epsilon: req.Epsilon,
		MaxIter: req.MaxIter,
		Tol:     req.Tol,
	})
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	for _, b := range res.Beliefs {
		for _, x := range b {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				writeErr(w, http.StatusBadRequest, "propagation diverged: epsilon %g is too large for this graph", req.Epsilon)
				return
			}
		}
	}
	nodes := req.Nodes
	if nodes == nil {
		nodes = make([]int, len(res.Beliefs))
		for i := range nodes {
			nodes[i] = i
		}
	}
	out := apiv1.PropagateResponse{
		Epoch:      snap.Epoch,
		Iterations: res.Iterations,
		Converged:  res.Converged,
		Classes:    snap.schema.Node[req.Attr].Domain,
		Nodes:      make([]apiv1.NodeBeliefs, 0, len(nodes)),
	}
	for _, v := range nodes {
		if v < 0 || v >= len(res.Beliefs) {
			writeErr(w, http.StatusBadRequest, "node %d out of range", v)
			return
		}
		out.Nodes = append(out.Nodes, apiv1.NodeBeliefs{Node: v, Beliefs: res.Beliefs[v]})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req apiv1.IngestRequest
	if !readJSON(w, r, "ingest", &req) {
		return
	}
	if len(req.Ins) == 0 && len(req.Del) == 0 {
		writeErr(w, http.StatusBadRequest, "empty batch")
		return
	}
	b := core.Batch{}
	if len(req.Ins) > 0 {
		b.Ins = make([]core.EdgeInsert, len(req.Ins))
		for i, e := range req.Ins {
			vals, err := toValues(e.Vals)
			if err != nil {
				writeErr(w, http.StatusBadRequest, "ins[%d]: %v", i, err)
				return
			}
			b.Ins[i] = core.EdgeInsert{Src: e.Src, Dst: e.Dst, Vals: vals}
		}
	}
	if len(req.Del) > 0 {
		b.Del = make([]core.EdgeDelete, len(req.Del))
		for i, e := range req.Del {
			vals, err := toValues(e.Vals)
			if err != nil {
				writeErr(w, http.StatusBadRequest, "del[%d]: %v", i, err)
				return
			}
			b.Del[i] = core.EdgeDelete{Src: e.Src, Dst: e.Dst, Vals: vals}
		}
	}
	snap, stats, err := s.Ingest(b)
	if err != nil {
		// The engine rejected the batch atomically: nothing applied, no
		// epoch published. The client's data was at fault.
		writeErr(w, http.StatusBadRequest, "batch rejected: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, apiv1.IngestResponse{
		Epoch:      snap.Epoch,
		Edges:      stats.Edges,
		Deletes:    stats.Deleted,
		Changed:    snap.Changed,
		TotalEdges: snap.TotalEdges,
	})
}

// toValues converts wire ints to schema values, rejecting out-of-range
// input before it can reach the engine.
func toValues(in []int) ([]graph.Value, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make([]graph.Value, len(in))
	for i, v := range in {
		if v < 0 || v > int(^graph.Value(0)) {
			return nil, fmt.Errorf("value %d out of range", v)
		}
		out[i] = graph.Value(v)
	}
	return out, nil
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	ch, cancel := s.subscribe()
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Open with the current epoch so a subscriber can detect batches it
	// missed between connecting and the first drift event.
	snap := s.snap.Load()
	writeEvent(w, "hello", apiv1.Event{Epoch: snap.Epoch, TotalEdges: snap.TotalEdges})
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			writeEvent(w, "drift", ev)
			fl.Flush()
		}
	}
}

func writeEvent(w http.ResponseWriter, name string, ev apiv1.Event) {
	data, _ := json.Marshal(ev)
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	out := apiv1.StatusResponse{
		APIVersion:    apiv1.Version,
		Epoch:         snap.Epoch,
		TotalEdges:    snap.TotalEdges,
		Metric:        apiv1.MetricName(snap.Options),
		MinSupp:       snap.Options.MinSupp,
		MinScore:      snap.Options.MinScore,
		K:             snap.Options.K,
		DynamicFloor:  snap.Options.DynamicFloor,
		Batches:       snap.Cumulative.Batches,
		Edges:         snap.Cumulative.Edges,
		Deletes:       snap.Cumulative.Deleted,
		DroppedEvents: s.droppedEvents.Load(),
	}
	if len(snap.Fleet) > 0 {
		out.Fleet = make([]apiv1.WorkerStatus, 0, len(snap.Fleet))
		for _, h := range snap.Fleet {
			out.Fleet = append(out.Fleet, apiv1.WorkerStatusFrom(h))
		}
	}
	writeJSON(w, http.StatusOK, out)
}
