package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"grminer/internal/core"
	"grminer/internal/dataset"
	"grminer/internal/graph"
	"grminer/internal/metrics"
	"grminer/internal/serve"
	"grminer/internal/serve/apiv1"
)

// newServer spins up a serve.Server over the toy dating network's
// single-store incremental engine (which maintains exact per-rule counts,
// so explain answers come from the pool).
func newServer(t *testing.T) (*serve.Server, *graph.Graph) {
	t.Helper()
	g := dataset.ToyDating()
	inc, err := core.NewIncremental(g, core.Options{MinSupp: 2, MinScore: 0.5, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	return serve.New(inc, g), g
}

// noExplainEngine hides the incremental pool's Explain so the server must
// fall back to full-scan explain counts.
type noExplainEngine struct{ inc *core.Incremental }

func (e noExplainEngine) ApplyBatch(b core.Batch) (*core.Result, core.IncStats, error) {
	return e.inc.ApplyBatch(b)
}
func (e noExplainEngine) Result() *core.Result      { return e.inc.Result() }
func (e noExplainEngine) Options() core.Options     { return e.inc.Options() }
func (e noExplainEngine) Cumulative() core.IncStats { return e.inc.Cumulative() }

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(w, r)
	return w
}

// decode fails the test unless the recorder holds status plus a JSON body of
// v's shape.
func decode(t *testing.T, w *httptest.ResponseRecorder, status int, v any) {
	t.Helper()
	if w.Code != status {
		t.Fatalf("status %d, want %d (body %s)", w.Code, status, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatalf("decode %s: %v", w.Body.String(), err)
	}
}

// wantErr asserts a non-2xx apiv1.Error body whose code echoes the status.
func wantErr(t *testing.T, w *httptest.ResponseRecorder, status int) apiv1.Error {
	t.Helper()
	var e apiv1.Error
	decode(t, w, status, &e)
	if e.Code != status || e.Error == "" {
		t.Fatalf("error body %+v does not echo status %d", e, status)
	}
	return e
}

func TestTopKHandler(t *testing.T) {
	s, _ := newServer(t)
	h := s.Handler()

	var res apiv1.TopKResponse
	decode(t, get(t, h, "/v1/topk"), http.StatusOK, &res)
	if res.Epoch != 1 {
		t.Errorf("seed epoch %d, want 1", res.Epoch)
	}
	if res.Metric != "nhp" || res.K != 10 {
		t.Errorf("metric %q k %d, want nhp/10", res.Metric, res.K)
	}
	if res.TotalEdges != 30 {
		t.Errorf("total_edges %d, want 30", res.TotalEdges)
	}
	if len(res.Rules) == 0 {
		t.Fatal("no rules mined from the toy network")
	}
	if len(res.Rules) != len(s.Snapshot().TopK) {
		t.Errorf("%d rules, snapshot holds %d", len(res.Rules), len(s.Snapshot().TopK))
	}
	for i, r := range res.Rules {
		if r.Rank != i+1 {
			t.Errorf("rules[%d].rank = %d", i, r.Rank)
		}
		if r.GR == "" || r.Supp <= 0 {
			t.Errorf("rules[%d] = %+v not rendered", i, r)
		}
	}

	var lim apiv1.TopKResponse
	decode(t, get(t, h, "/v1/topk?limit=1"), http.StatusOK, &lim)
	if len(lim.Rules) != 1 || lim.Rules[0] != res.Rules[0] {
		t.Errorf("limit=1 returned %+v, want the top rule only", lim.Rules)
	}

	wantErr(t, get(t, h, "/v1/topk?limit=abc"), http.StatusBadRequest)
	wantErr(t, get(t, h, "/v1/topk?limit=-1"), http.StatusBadRequest)
}

// The Go 1.22 mux enforces methods: a wrong verb is a 405, not a handler
// panic or a silent 200.
func TestMethodMapping(t *testing.T) {
	s, _ := newServer(t)
	h := s.Handler()
	for _, c := range []struct {
		method, path string
	}{
		{http.MethodPost, "/v1/topk"},
		{http.MethodGet, "/v1/ingest"},
		{http.MethodGet, "/v1/recommend"},
		{http.MethodDelete, "/v1/rules/1"},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(c.method, c.path, strings.NewReader("{}")))
		if w.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", c.method, c.path, w.Code)
		}
	}
	w := get(t, h, "/v1/nope")
	if w.Code != http.StatusNotFound {
		t.Errorf("GET /v1/nope: status %d, want 404", w.Code)
	}
}

func TestRuleHandler(t *testing.T) {
	s, g := newServer(t)
	h := s.Handler()

	var res apiv1.RuleResponse
	decode(t, get(t, h, "/v1/rules/1"), http.StatusOK, &res)
	if res.Rank != 1 || res.Epoch != 1 {
		t.Errorf("rank %d epoch %d, want 1/1", res.Rank, res.Epoch)
	}
	if res.CountsSource != "pool" {
		t.Errorf("counts_source %q, want pool (incremental engine maintains counts)", res.CountsSource)
	}
	if res.Counts.LWR != res.Supp {
		t.Errorf("counts.lwr %d != supp %d", res.Counts.LWR, res.Supp)
	}
	// The maintained counts must agree with a fresh evaluation. The pool
	// leaves Counts.R at 0 when the metric does not need it (nhp doesn't).
	sc := s.Snapshot().TopK[0]
	want := apiv1.CountsFrom(metrics.Eval(g, sc.GR))
	want.R = res.Counts.R
	if res.Counts != want {
		t.Errorf("pool counts %+v, scan says %+v", res.Counts, want)
	}
	if res.Nhp != metrics.Nhp(metrics.Eval(g, sc.GR)) {
		t.Errorf("nhp %v mismatches a fresh evaluation", res.Nhp)
	}

	wantErr(t, get(t, h, "/v1/rules/abc"), http.StatusBadRequest)
	wantErr(t, get(t, h, "/v1/rules/0"), http.StatusNotFound)
	wantErr(t, get(t, h, fmt.Sprintf("/v1/rules/%d", len(s.Snapshot().TopK)+1)), http.StatusNotFound)
}

// Without an Explainer the handler recomputes counts by a locked scan and
// says so.
func TestRuleHandlerScanFallback(t *testing.T) {
	g := dataset.ToyDating()
	inc, err := core.NewIncremental(g, core.Options{MinSupp: 2, MinScore: 0.5, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(noExplainEngine{inc}, g)

	var res apiv1.RuleResponse
	decode(t, get(t, s.Handler(), "/v1/rules/1"), http.StatusOK, &res)
	if res.CountsSource != "scan" {
		t.Errorf("counts_source %q, want scan", res.CountsSource)
	}
	if want := apiv1.CountsFrom(metrics.Eval(g, s.Snapshot().TopK[0].GR)); res.Counts != want {
		t.Errorf("scan counts %+v, want %+v", res.Counts, want)
	}
}

func TestRecommendHandler(t *testing.T) {
	s, _ := newServer(t)
	h := s.Handler()

	var byNode apiv1.RecommendResponse
	decode(t, post(t, h, "/v1/recommend", `{"node":0,"top_n":3}`), http.StatusOK, &byNode)
	if byNode.Epoch != 1 || byNode.Rules == 0 {
		t.Errorf("epoch %d rules %d, want epoch 1 and some applied rules", byNode.Epoch, byNode.Rules)
	}
	if byNode.Prospects != nil {
		t.Error("node query answered with a campaign")
	}
	for _, sg := range byNode.Suggestions {
		if sg.RHS == "" || len(sg.Rules) == 0 {
			t.Errorf("suggestion %+v not rendered", sg)
		}
	}

	var campaign apiv1.RecommendResponse
	decode(t, post(t, h, "/v1/recommend", `{"rhs":"(SEX:F)","top_n":5}`), http.StatusOK, &campaign)
	if campaign.Suggestions != nil {
		t.Error("campaign answered with per-node suggestions")
	}
	if len(campaign.Prospects) > 5 {
		t.Errorf("top_n=5 returned %d prospects", len(campaign.Prospects))
	}

	wantErr(t, post(t, h, "/v1/recommend", `{}`), http.StatusBadRequest)
	wantErr(t, post(t, h, "/v1/recommend", `{"node":0,"rhs":"(SEX:F)"}`), http.StatusBadRequest)
	wantErr(t, post(t, h, "/v1/recommend", `{"rhs":"(NOPE:X)"}`), http.StatusBadRequest)
	wantErr(t, post(t, h, "/v1/recommend", `{"node":9999}`), http.StatusBadRequest)
	wantErr(t, post(t, h, "/v1/recommend", `{"bogus":1}`), http.StatusBadRequest)
	wantErr(t, post(t, h, "/v1/recommend", `{"node":0}trailing`), http.StatusBadRequest)
	wantErr(t, post(t, h, "/v1/recommend", `not json`), http.StatusBadRequest)
}

func TestPropagateHandler(t *testing.T) {
	s, g := newServer(t)
	h := s.Handler()

	var res apiv1.PropagateResponse
	decode(t, post(t, h, "/v1/propagate", `{"attr":1}`), http.StatusOK, &res)
	if res.Classes != 3 {
		t.Errorf("classes %d, want RACE's domain 3", res.Classes)
	}
	if len(res.Nodes) != g.NumNodes() {
		t.Errorf("%d nodes returned, want all %d", len(res.Nodes), g.NumNodes())
	}
	for _, nb := range res.Nodes {
		if len(nb.Beliefs) != res.Classes {
			t.Fatalf("node %d has %d beliefs, want %d", nb.Node, len(nb.Beliefs), res.Classes)
		}
	}
	if res.Iterations <= 0 {
		t.Errorf("iterations %d", res.Iterations)
	}

	var sel apiv1.PropagateResponse
	decode(t, post(t, h, "/v1/propagate", `{"attr":1,"nodes":[0,5]}`), http.StatusOK, &sel)
	if len(sel.Nodes) != 2 || sel.Nodes[0].Node != 0 || sel.Nodes[1].Node != 5 {
		t.Errorf("nodes filter returned %+v", sel.Nodes)
	}

	var fromRules apiv1.PropagateResponse
	decode(t, post(t, h, "/v1/propagate", `{"attr":1,"from_rules":true,"nodes":[]}`), http.StatusOK, &fromRules)

	wantErr(t, post(t, h, "/v1/propagate", `{"attr":99}`), http.StatusBadRequest)
	wantErr(t, post(t, h, "/v1/propagate", `{"attr":1,"nodes":[99]}`), http.StatusBadRequest)
	wantErr(t, post(t, h, "/v1/propagate", `{"attr":"RACE"}`), http.StatusBadRequest)

	// The run holds the ingest lock, so its sweep count is capped and a
	// tolerance no sweep can meet is refused before any sweep runs.
	var capped apiv1.PropagateResponse
	decode(t, post(t, h, "/v1/propagate", fmt.Sprintf(`{"attr":1,"max_iter":%d,"tol":1e-300}`, serve.MaxPropagateIter)), http.StatusOK, &capped)
	if capped.Iterations < 1 || capped.Iterations > serve.MaxPropagateIter {
		t.Errorf("capped run made %d sweeps", capped.Iterations)
	}
	for _, body := range []string{
		`{"attr":0,"max_iter":2000000000,"tol":-1}`,
		fmt.Sprintf(`{"attr":1,"max_iter":%d}`, serve.MaxPropagateIter+1),
		`{"attr":1,"max_iter":-1}`,
		`{"attr":1,"tol":-1e-9}`,
		`{"attr":1,"epsilon":1e300}`, // diverges to non-finite beliefs
	} {
		wantErr(t, post(t, h, "/v1/propagate", body), http.StatusBadRequest)
	}
}

func TestIngestHandler(t *testing.T) {
	s, _ := newServer(t)
	h := s.Handler()

	var ins apiv1.IngestResponse
	decode(t, post(t, h, "/v1/ingest", `{"ins":[{"src":0,"dst":7,"vals":[1]}]}`), http.StatusOK, &ins)
	if ins.Epoch != 2 || ins.Edges != 1 || ins.Deletes != 0 {
		t.Errorf("insert response %+v, want epoch 2, 1 edge", ins)
	}
	if ins.TotalEdges != 31 {
		t.Errorf("total_edges %d, want 31", ins.TotalEdges)
	}

	var del apiv1.IngestResponse
	decode(t, post(t, h, "/v1/ingest", `{"del":[{"src":0,"dst":7,"vals":[1]}]}`), http.StatusOK, &del)
	if del.Epoch != 3 || del.Deletes != 1 || del.TotalEdges != 30 {
		t.Errorf("delete response %+v, want epoch 3, 1 delete, 30 edges", del)
	}
}

// A batch the engine rejects must leave no trace: same epoch, same top-k,
// same edge count — atomic rejection all the way through the HTTP layer.
func TestIngestAtomicRejection(t *testing.T) {
	s, _ := newServer(t)
	h := s.Handler()
	before := s.Snapshot()

	for _, body := range []string{
		`{}`, // empty batch
		`{"ins":[{"src":-1,"dst":0,"vals":[1]}]}`,                                     // bad node id
		`{"ins":[{"src":0,"dst":9999,"vals":[1]}]}`,                                   // unknown node
		`{"ins":[{"src":0,"dst":1}]}`,                                                 // missing edge value
		`{"ins":[{"src":0,"dst":1,"vals":[99]}]}`,                                     // out of domain
		`{"ins":[{"src":0,"dst":1,"vals":[70000]}]}`,                                  // beyond graph.Value
		`{"del":[{"src":0,"dst":1,"vals":[1]}]}`,                                      // no such live edge
		`{"ins":[{"src":0,"dst":7,"vals":[1]}],"del":[{"src":0,"dst":1,"vals":[1]}]}`, // good half + bad half
		`{"ins":[{"src":0,"dst":7,"vals":[1]}],"bogus":true}`,                         // unknown field
		`{"ins":[{"src":0,"dst":7,"vals":[1]}]}{"again":true}`,                        // trailing data
		`not json`,
	} {
		wantErr(t, post(t, h, "/v1/ingest", body), http.StatusBadRequest)
	}

	after := s.Snapshot()
	if after.Epoch != before.Epoch {
		t.Fatalf("rejected batches advanced the epoch: %d -> %d", before.Epoch, after.Epoch)
	}
	if after.TotalEdges != before.TotalEdges {
		t.Fatalf("rejected batches mutated the graph: %d -> %d edges", before.TotalEdges, after.TotalEdges)
	}
	var res apiv1.TopKResponse
	decode(t, get(t, h, "/v1/topk"), http.StatusOK, &res)
	if len(res.Rules) != len(before.TopK) {
		t.Fatalf("rejected batches changed the top-k: %d rules, want %d", len(res.Rules), len(before.TopK))
	}

	// And the server still ingests a good batch afterwards.
	var ok apiv1.IngestResponse
	decode(t, post(t, h, "/v1/ingest", `{"ins":[{"src":0,"dst":7,"vals":[1]}]}`), http.StatusOK, &ok)
	if ok.Epoch != before.Epoch+1 {
		t.Errorf("good batch after rejects published epoch %d, want %d", ok.Epoch, before.Epoch+1)
	}
}

// An ingest body over MaxBodyBytes is refused with 413 and the usual JSON
// error before the engine sees it: the epoch and graph stay put. The body
// is a well-formed batch, so only its size can be at fault.
func TestIngestOversizedBody(t *testing.T) {
	s, _ := newServer(t)
	h := s.Handler()
	before := s.Snapshot()

	const edge = `{"src":0,"dst":7,"vals":[1]}`
	var body strings.Builder
	body.WriteString(`{"ins":[` + edge)
	for body.Len() <= serve.MaxBodyBytes {
		body.WriteString("," + edge)
	}
	body.WriteString("]}")
	wantErr(t, post(t, h, "/v1/ingest", body.String()), http.StatusRequestEntityTooLarge)

	if after := s.Snapshot(); after.Epoch != before.Epoch || after.TotalEdges != before.TotalEdges {
		t.Fatalf("oversized body moved the engine: epoch %d -> %d, %d -> %d edges",
			before.Epoch, after.Epoch, before.TotalEdges, after.TotalEdges)
	}
	var ok apiv1.IngestResponse
	decode(t, post(t, h, "/v1/ingest", `{"ins":[`+edge+`]}`), http.StatusOK, &ok)
	if ok.Epoch != before.Epoch+1 {
		t.Errorf("good batch after the refusal published epoch %d, want %d", ok.Epoch, before.Epoch+1)
	}
}

func TestStatusHandler(t *testing.T) {
	s, _ := newServer(t)
	h := s.Handler()

	var st apiv1.StatusResponse
	decode(t, get(t, h, "/v1/status"), http.StatusOK, &st)
	if st.APIVersion != apiv1.Version || st.Epoch != 1 {
		t.Errorf("api_version %d epoch %d, want %d/1", st.APIVersion, st.Epoch, apiv1.Version)
	}
	if st.Metric != "nhp" || st.MinSupp != 2 || st.MinScore != 0.5 || st.K != 10 {
		t.Errorf("options not echoed: %+v", st)
	}
	if st.Batches != 0 || st.Edges != 0 || st.Deletes != 0 {
		t.Errorf("fresh server reports lifetime totals %+v", st)
	}

	post(t, h, "/v1/ingest", `{"ins":[{"src":0,"dst":7,"vals":[1]}]}`)
	post(t, h, "/v1/ingest", `{"del":[{"src":0,"dst":7,"vals":[1]}]}`)
	decode(t, get(t, h, "/v1/status"), http.StatusOK, &st)
	if st.Epoch != 3 || st.Batches != 2 || st.Edges != 1 || st.Deletes != 1 {
		t.Errorf("after two batches: %+v, want epoch 3, batches 2, edges 1, deletes 1", st)
	}
}

// A fleet-tracking engine's per-worker health shows up in /v1/status; a
// single-store engine's status omits the fleet entirely.
func TestStatusFleet(t *testing.T) {
	g := dataset.ToyDating()
	shinc, err := core.NewIncrementalSharded(g, core.Options{MinSupp: 2, MinScore: 0.5, K: 10},
		core.ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := serve.New(shinc, g).Handler()

	var st apiv1.StatusResponse
	decode(t, get(t, h, "/v1/status"), http.StatusOK, &st)
	if len(st.Fleet) != 3 {
		t.Fatalf("fleet has %d workers, want 3: %+v", len(st.Fleet), st.Fleet)
	}
	for i, w := range st.Fleet {
		if w.Shard != i || !w.Live {
			t.Errorf("worker %d: %+v, want live shard %d", i, w, i)
		}
		if w.Retries != 0 || w.Replacements != 0 || w.LastError != "" {
			t.Errorf("worker %d reports failover activity on a healthy fleet: %+v", i, w)
		}
	}
	if st.DroppedEvents != 0 {
		t.Errorf("fresh server dropped %d events", st.DroppedEvents)
	}

	// The fleet tracks across ingests (health is re-captured per snapshot).
	post(t, h, "/v1/ingest", `{"ins":[{"src":0,"dst":7,"vals":[1]}]}`)
	decode(t, get(t, h, "/v1/status"), http.StatusOK, &st)
	if st.Epoch != 2 || len(st.Fleet) != 3 {
		t.Errorf("after ingest: epoch %d fleet %d, want 2/3", st.Epoch, len(st.Fleet))
	}

	// Single-store engines have no fleet.
	single, _ := newServer(t)
	var plain apiv1.StatusResponse
	decode(t, get(t, single.Handler(), "/v1/status"), http.StatusOK, &plain)
	if plain.Fleet != nil {
		t.Errorf("single-store status reports a fleet: %+v", plain.Fleet)
	}
}

// The SSE stream greets with the current epoch and emits one drift event per
// applied batch.
func TestEventsStream(t *testing.T) {
	s, _ := newServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	readEvent := func() (string, apiv1.Event) {
		t.Helper()
		var name string
		var ev apiv1.Event
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
					t.Fatal(err)
				}
				return name, ev
			}
		}
		t.Fatalf("stream ended early: %v", sc.Err())
		return "", ev
	}

	name, hello := readEvent()
	if name != "hello" || hello.Epoch != 1 {
		t.Fatalf("greeting %q %+v, want hello at epoch 1", name, hello)
	}

	body := bytes.NewReader([]byte(`{"ins":[{"src":0,"dst":7,"vals":[1]}]}`))
	ir, err := http.Post(ts.URL+"/v1/ingest", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	ir.Body.Close()
	if ir.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", ir.StatusCode)
	}

	name, drift := readEvent()
	if name != "drift" {
		t.Fatalf("second event %q, want drift", name)
	}
	if drift.Epoch != 2 || drift.Edges != 1 || drift.TotalEdges != 31 {
		t.Fatalf("drift event %+v, want epoch 2, 1 edge, 31 total", drift)
	}
}

// TestSnapshotStress runs continuous reads against a writer applying
// batches. Under -race this proves the RCU publication protocol: readers
// never block, never see a torn snapshot (digest verifies), and epochs only
// move forward.
func TestSnapshotStress(t *testing.T) {
	s, _ := newServer(t)
	h := s.Handler()

	const batches = 150
	const readers = 4

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			var last uint64
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				snap := s.Snapshot()
				if !snap.VerifyDigest() {
					t.Errorf("reader %d observed a torn snapshot at epoch %d", seed, snap.Epoch)
					return
				}
				if snap.Epoch < last {
					t.Errorf("reader %d saw the epoch go backwards: %d after %d", seed, snap.Epoch, last)
					return
				}
				last = snap.Epoch
				if len(snap.Counts) != len(snap.TopK) || len(snap.HasCounts) != len(snap.TopK) {
					t.Errorf("reader %d: snapshot arrays disagree: %d rules, %d counts", seed, len(snap.TopK), len(snap.Counts))
					return
				}
				// Every few spins, read through the full HTTP path too.
				if i%8 == seed%8 {
					var res apiv1.TopKResponse
					decode(t, get(t, h, "/v1/topk"), http.StatusOK, &res)
					if res.Epoch < last-1 {
						t.Errorf("reader %d: handler served epoch %d long after %d", seed, res.Epoch, last)
						return
					}
				}
			}
		}(r)
	}

	// The writer alternates inserts with deletes of its own earlier edges so
	// the top-k keeps churning in both directions.
	var live []core.EdgeInsert
	for i := 0; i < batches; i++ {
		b := core.Batch{}
		e := core.EdgeInsert{Src: i % 14, Dst: (i*5 + 3) % 14, Vals: []graph.Value{dataset.TypeDates}}
		b.Ins = append(b.Ins, e)
		live = append(live, e)
		if i%3 == 2 {
			d := live[0]
			live = live[1:]
			b.Del = append(b.Del, core.EdgeDelete{Src: d.Src, Dst: d.Dst, Vals: d.Vals})
		}
		snap, _, err := s.Ingest(b)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if snap.Epoch != uint64(i)+2 {
			t.Fatalf("batch %d published epoch %d, want %d", i, snap.Epoch, i+2)
		}
	}
	close(done)
	wg.Wait()

	final := s.Snapshot()
	if final.Epoch != batches+1 {
		t.Errorf("final epoch %d, want %d", final.Epoch, batches+1)
	}
	if !final.VerifyDigest() {
		t.Error("final snapshot fails its own digest")
	}

}

// After a churned ingest run the served top-k must be byte-identical to an
// offline re-mine of the live graph — the exactness claim the CI serving
// gate also checks end-to-end.
func TestServedMatchesOfflineMine(t *testing.T) {
	s, g := newServer(t)
	h := s.Handler()

	var live []core.EdgeInsert
	for i := 0; i < 60; i++ {
		b := core.Batch{}
		e := core.EdgeInsert{Src: (i * 3) % 14, Dst: (i*7 + 1) % 14, Vals: []graph.Value{dataset.TypeDates}}
		b.Ins = append(b.Ins, e)
		live = append(live, e)
		if i%4 == 3 {
			d := live[0]
			live = live[1:]
			b.Del = append(b.Del, core.EdgeDelete{Src: d.Src, Dst: d.Dst, Vals: d.Vals})
		}
		if _, _, err := s.Ingest(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}

	ref, err := core.Mine(g, core.Options{MinSupp: 2, MinScore: 0.5, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	var served apiv1.TopKResponse
	decode(t, get(t, h, "/v1/topk"), http.StatusOK, &served)
	if served.TotalEdges != ref.TotalEdges {
		t.Errorf("served %d edges, offline mine sees %d", served.TotalEdges, ref.TotalEdges)
	}
	if len(served.Rules) != len(ref.TopK) {
		t.Fatalf("served %d rules, offline mine found %d", len(served.Rules), len(ref.TopK))
	}
	for i, want := range ref.TopK {
		got := served.Rules[i]
		if got.GR != want.GR.Format(g.Schema()) || got.Supp != want.Supp || got.Score != want.Score {
			t.Errorf("rank %d: served %+v, offline mine %s supp=%d score=%v",
				i+1, got, want.GR.Format(g.Schema()), want.Supp, want.Score)
		}
	}
}
