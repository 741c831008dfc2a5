package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"grminer/internal/core"
	"grminer/internal/graph"
	"grminer/internal/serve"
	"grminer/internal/serve/apiv1"
)

// ServingLatency summarizes one request class's latency distribution.
type ServingLatency struct {
	Count int     `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// ServingReport is the machine-readable snapshot written to
// BENCH_serving.json: mixed read/ingest traffic against a live /v1 API,
// checked for exactness against a shadow oracle engine and an offline
// re-mine. The CI serving-gate fails the build when identical_results is
// false.
type ServingReport struct {
	Dataset string `json:"dataset"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`

	MinSupp int     `json:"min_supp"`
	MinNhp  float64 `json:"min_nhp"`
	K       int     `json:"k"`

	// Addr is the server driven; External is true when it was a separately
	// launched grminerd (cfg.ServeAddr) rather than an in-process listener.
	Addr     string `json:"addr"`
	External bool   `json:"external_server"`

	// Batches/BatchEdges/BatchDeletes describe the ingest stream; Readers
	// concurrent read loops ran against it for its whole duration.
	Batches      int `json:"batches"`
	BatchEdges   int `json:"batch_edges"`
	BatchDeletes int `json:"batch_deletes"`
	Readers      int `json:"readers"`

	ReadTopK ServingLatency `json:"read_topk_latency"`
	ReadRule ServingLatency `json:"read_rule_latency"`
	Ingest   ServingLatency `json:"ingest_latency"`

	// FinalEpoch and FinalTotalEdges come from the last served snapshot.
	FinalEpoch      uint64 `json:"final_epoch"`
	FinalTotalEdges int    `json:"final_total_edges"`

	// ServedIdentical: the served top-k equals the shadow oracle engine fed
	// the same batches. OfflineIdentical: that oracle equals a from-scratch
	// re-mine of its final graph. Identical is their conjunction — the
	// serving path returned exactly what offline mining computes.
	ServedIdentical  bool `json:"served_identical"`
	OfflineIdentical bool `json:"offline_identical"`
	Identical        bool `json:"identical_results"`
}

// servingOpts is the one place the experiment's mining options are derived,
// so the shadow oracle and the in-process server can never drift apart.
func servingOpts(cfg Config) core.Options {
	return core.Options{
		MinSupp: cfg.MinSupp, MinScore: cfg.MinNhp, K: cfg.K,
		DynamicFloor: cfg.K > 0,
	}
}

// Serving drives mixed read/ingest traffic against a live /v1 HTTP API and
// measures read/ingest latency percentiles while checking exactness: every
// batch also feeds a shadow oracle engine over an identical generated graph,
// and at the end the served top-k must match the oracle and the oracle must
// match an offline re-mine.
//
// With cfg.ServeAddr set, the traffic goes to an externally launched
// grminerd (which must have been started on the same dataset flags:
// -data pokec -nodes/-deg/-seed/-minsupp/-minnhp/-k as this run); otherwise
// the experiment hosts the server itself on an in-process loopback listener,
// exercising the very same serve.Server the daemon runs.
func Serving(w io.Writer, cfg Config) error {
	opt := servingOpts(cfg)

	// The shadow oracle: an identical graph (same generator, same seed) fed
	// the same batch stream through a local incremental engine.
	gOracle := cfg.pokec()
	oracle, err := core.NewIncremental(gOracle, opt)
	if err != nil {
		return err
	}

	base := ""
	external := cfg.ServeAddr != ""
	if external {
		base = "http://" + cfg.ServeAddr
	} else {
		gServer := cfg.pokec()
		inc, err := core.NewIncremental(gServer, opt)
		if err != nil {
			return err
		}
		srv := serve.New(inc, gServer)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: serve.ReadHeaderTimeout}
		go hs.Serve(ln) //nolint:errcheck // closed below
		defer hs.Close()
		base = "http://" + ln.Addr().String()
	}
	client := &http.Client{Timeout: 60 * time.Second}

	// Parity check before any traffic: the server must be mining the same
	// network under the same thresholds, or "identical" would be vacuous.
	var st apiv1.StatusResponse
	if err := getJSON(client, base+"/v1/status", &st); err != nil {
		return fmt.Errorf("serving: %s unreachable: %w", base, err)
	}
	seed := oracle.Result()
	if st.TotalEdges != seed.TotalEdges || st.MinSupp != cfg.MinSupp || st.K != cfg.K {
		return fmt.Errorf("serving: server at %s mines |E|=%d minSupp=%d k=%d; this run expects |E|=%d minSupp=%d k=%d — launch grminerd with matching -data/-nodes/-deg/-seed/-minsupp/-minnhp/-k",
			base, st.TotalEdges, st.MinSupp, st.K, seed.TotalEdges, cfg.MinSupp, cfg.K)
	}

	rep := ServingReport{
		Dataset: "pokec-like", Nodes: gOracle.NumNodes(), Edges: seed.TotalEdges,
		MinSupp: cfg.MinSupp, MinNhp: cfg.MinNhp, K: cfg.K,
		Addr: base, External: external,
	}
	fmt.Fprintf(w, "== Serving: mixed read/ingest traffic over the /v1 API ==  |V|=%d |E|=%d minSupp=%d minNhp=%0.0f%% k=%d (%s)\n",
		rep.Nodes, rep.Edges, rep.MinSupp, 100*rep.MinNhp, rep.K, rep.Addr)

	// Readers hammer the wait-free endpoints for the writer's whole run.
	const readers = 4
	rep.Readers = readers
	done := make(chan struct{})
	var wg sync.WaitGroup
	readErr := make(chan error, readers)
	topkLat := make([][]time.Duration, readers)
	ruleLat := make([][]time.Duration, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var (
					url  = base + "/v1/topk?limit=10"
					sink = &topkLat[r]
				)
				if i%2 == 1 {
					url = base + "/v1/rules/1"
					sink = &ruleLat[r]
				}
				t0 := time.Now()
				resp, err := client.Get(url)
				if err != nil {
					select {
					case readErr <- err:
					default:
					}
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for keep-alive
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					select {
					case readErr <- fmt.Errorf("GET %s: status %d", url, resp.StatusCode):
					default:
					}
					return
				}
				*sink = append(*sink, time.Since(t0))
			}
		}(r)
	}

	// The writer streams deterministic batches — inserts plus retractions of
	// its own earlier inserts — to the server AND the shadow oracle.
	const nBatches, batchSize, delPerBatch = 6, 200, 20
	rng := rand.New(rand.NewSource(cfg.Seed + 73))
	var live []core.EdgeInsert
	var ingestLat []time.Duration
	var lastIngest apiv1.IngestResponse
	schema := gOracle.Schema()
	for b := 0; b < nBatches; b++ {
		batch := core.Batch{Ins: make([]core.EdgeInsert, batchSize)}
		for i := range batch.Ins {
			e := core.EdgeInsert{Src: rng.Intn(rep.Nodes), Dst: rng.Intn(rep.Nodes)}
			for _, attr := range schema.Edge {
				e.Vals = append(e.Vals, graph.Value(1+rng.Intn(attr.Domain)))
			}
			batch.Ins[i] = e
		}
		live = append(live, batch.Ins...)
		if b > 0 {
			for i := 0; i < delPerBatch; i++ {
				d := live[0]
				live = live[1:]
				batch.Del = append(batch.Del, core.EdgeDelete{Src: d.Src, Dst: d.Dst, Vals: d.Vals})
			}
		}
		rep.BatchEdges += len(batch.Ins)
		rep.BatchDeletes += len(batch.Del)

		t0 := time.Now()
		if err := postJSON(client, base+"/v1/ingest", ingestRequest(batch), &lastIngest); err != nil {
			close(done)
			wg.Wait()
			return fmt.Errorf("serving: batch %d: %w", b, err)
		}
		ingestLat = append(ingestLat, time.Since(t0))
		if _, _, err := oracle.ApplyBatch(batch); err != nil {
			close(done)
			wg.Wait()
			return fmt.Errorf("serving: oracle batch %d: %w", b, err)
		}
		rep.Batches++
	}
	close(done)
	wg.Wait()
	select {
	case err := <-readErr:
		return fmt.Errorf("serving: reader failed mid-run: %w", err)
	default:
	}

	// Exactness: served == shadow oracle == offline re-mine.
	var served apiv1.TopKResponse
	if err := getJSON(client, base+"/v1/topk", &served); err != nil {
		return err
	}
	rep.FinalEpoch = served.Epoch
	rep.FinalTotalEdges = served.TotalEdges
	want := oracle.Result()
	rep.ServedIdentical = served.TotalEdges == want.TotalEdges && len(served.Rules) == len(want.TopK)
	if rep.ServedIdentical {
		for i, r := range served.Rules {
			o := want.TopK[i]
			if r.GR != o.GR.Format(schema) || r.Supp != o.Supp || r.Score != o.Score {
				rep.ServedIdentical = false
				break
			}
		}
	}
	ref, err := core.Mine(gOracle, oracle.Options())
	if err != nil {
		return err
	}
	rep.OfflineIdentical = sameTop(want.TopK, ref.TopK)
	rep.Identical = rep.ServedIdentical && rep.OfflineIdentical

	rep.ReadTopK = summarize(flatten(topkLat))
	rep.ReadRule = summarize(flatten(ruleLat))
	rep.Ingest = summarize(ingestLat)

	fmt.Fprintf(w, "  %-18s %8s %10s %10s %10s\n", "request", "count", "p50", "p99", "max")
	for _, row := range []struct {
		name string
		lat  ServingLatency
	}{
		{"GET /v1/topk", rep.ReadTopK},
		{"GET /v1/rules/1", rep.ReadRule},
		{"POST /v1/ingest", rep.Ingest},
	} {
		fmt.Fprintf(w, "  %-18s %8d %9.2fms %9.2fms %9.2fms\n",
			row.name, row.lat.Count, row.lat.P50Ms, row.lat.P99Ms, row.lat.MaxMs)
	}
	fmt.Fprintf(w, "  ingested %d batches (+%d/-%d edges): epoch %d, |E|=%d\n",
		rep.Batches, rep.BatchEdges, rep.BatchDeletes, rep.FinalEpoch, rep.FinalTotalEdges)
	if rep.ServedIdentical {
		fmt.Fprintln(w, "  shape: served top-k ≡ shadow oracle engine after every batch ✓")
	} else {
		fmt.Fprintln(w, "  shape: WARNING — the served top-k diverged from the shadow oracle")
	}
	if rep.OfflineIdentical {
		fmt.Fprintln(w, "  shape: oracle ≡ offline re-mine of the final graph ✓")
	} else {
		fmt.Fprintln(w, "  shape: WARNING — the incremental oracle diverged from an offline re-mine")
	}

	if cfg.JSONDir != "" {
		path := filepath.Join(cfg.JSONDir, "BENCH_serving.json")
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "  wrote %s\n", path)
	}
	return nil
}

// ingestRequest renders a core batch as the wire request the daemon accepts.
func ingestRequest(b core.Batch) apiv1.IngestRequest {
	req := apiv1.IngestRequest{}
	for _, e := range b.Ins {
		req.Ins = append(req.Ins, wireEdge(e.Src, e.Dst, e.Vals))
	}
	for _, e := range b.Del {
		req.Del = append(req.Del, wireEdge(e.Src, e.Dst, e.Vals))
	}
	return req
}

func wireEdge(src, dst int, vals []graph.Value) apiv1.IngestEdge {
	e := apiv1.IngestEdge{Src: src, Dst: dst}
	for _, v := range vals {
		e.Vals = append(e.Vals, int(v))
	}
	return e
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}

func postJSON(client *http.Client, url string, req, v any) error {
	payload, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}

func flatten(per [][]time.Duration) []time.Duration {
	var all []time.Duration
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// summarize computes the latency percentiles of one request class.
func summarize(lat []time.Duration) ServingLatency {
	if len(lat) == 0 {
		return ServingLatency{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	pct := func(q float64) float64 {
		i := int(q * float64(len(lat)-1))
		return ms(lat[i])
	}
	return ServingLatency{
		Count: len(lat),
		P50Ms: pct(0.50),
		P99Ms: pct(0.99),
		MaxMs: ms(lat[len(lat)-1]),
	}
}
