package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"grminer/internal/core"
	"grminer/internal/graph"
	"grminer/internal/serve"
	"grminer/internal/serve/apiv1"
)

// daemon is one in-process /v1 server on a loopback listener.
type daemon struct {
	g    *graph.Graph
	inc  *core.Incremental
	eng  *tracedEngine // nil when untraced
	hs   *http.Server
	base string
	done chan error
}

// startDaemon seeds the incremental engine over g, publishes epoch 1 and
// starts serving /v1 on a loopback port.
func startDaemon(g *graph.Graph, opt core.Options, tr *tracer) (*daemon, error) {
	inc, err := core.NewIncremental(g, opt)
	if err != nil {
		return nil, err
	}
	d := &daemon{g: g, inc: inc, done: make(chan error, 1)}
	var eng serve.Engine = inc
	if tr != nil {
		d.eng = &tracedEngine{inc: inc, tr: tr}
		eng = d.eng
	}
	h := serve.New(eng, g).Handler()
	if tr != nil {
		h = tracedHandler(tr, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.hs = &http.Server{Handler: h}
	d.base = "http://" + ln.Addr().String()
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop closes the server and waits for it to return.
func (d *daemon) stop() error {
	if err := d.hs.Close(); err != nil {
		return err
	}
	if err := <-d.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// newClient returns a client with a connection pool of its own, so the
// ingest and read loops each hold one connection.
func newClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
}

// runServe is serve-stream: a /v1 server over the single-store incremental
// engine, seeded with most of the Pokec-like graph. One connection posts
// mixed batches to /v1/ingest in a closed loop; a second reads the top-k
// and single rules in an open loop at a fixed rate.
func runServe(p params, seed int64, dur time.Duration, tr *tracer) (*result, error) {
	r := newResult()
	opt := miningOptions()
	// The seed graph is a sample of nodes × degree edges less the held-out
	// share; the rest of a graph generated at twice the degree is the
	// insert pool.
	full, err := pokec(p.Nodes, 2*p.Degree, seed)
	if err != nil {
		return nil, err
	}
	base := int(float64(p.Nodes) * p.Degree * (1 - p.Held))
	batches := stream(full, base, p.Ins, p.Del, streamLen(dur, p.MinOps), rand.New(rand.NewSource(seed)))
	payloads := make([][]byte, len(batches))
	for i, b := range batches {
		body, err := json.Marshal(ingestRequest(b))
		if err != nil {
			return nil, err
		}
		payloads[i] = body
	}
	r.logf("input: Pokec-like |V|=%d, seed graph |E|=%d (%.0f%% of %d × %g), %d precomputed batches of +%d/-%d; mine nhp minSupp=%d minNhp=%.2f k=%d",
		full.NumNodes(), base, 100*(1-p.Held), p.Nodes, p.Degree, len(batches), p.Ins, p.Del, opt.MinSupp, opt.MinScore, opt.K)

	// Set-up is the seed mine, the first snapshot and the listener.
	setup := newOpLog()
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for i := 0; i < p.Setups; i++ {
		g, err := prefix(full, base)
		if err != nil {
			return nil, err
		}
		if d != nil {
			err := d.stop()
			d = nil
			if err != nil {
				return nil, err
			}
			runtime.GC()
		}
		setup.calibrate()
		t0 := time.Now()
		d, err = startDaemon(g, opt, tr)
		if err != nil {
			return nil, err
		}
		setup.add(i, time.Since(t0), false)
	}
	setup.end()

	ingest, read := newClient(), newClient()
	defer ingest.CloseIdleConnections()
	defer read.CloseIdleConnections()
	stop := make(chan struct{})
	readsDone := make(chan []readSample)
	go func() {
		readsDone <- openLoop(stop, p.ReadEvery, func(i int) error {
			if i%2 == 0 {
				return get(read, d.base+"/v1/topk?limit=10")
			}
			return get(read, fmt.Sprintf("%s/v1/rules/%d", d.base, (i/2)%10+1))
		})
	}()

	ops := newOpLog()
	var alloc []uint64
	epoch := uint64(1)
	ops.runLoop(dur, p.MinOps, func(i int) bool {
		if i >= len(batches) {
			return false
		}
		traced := tracedOp(tr, i)
		var a0 uint64
		var sp *openSpan
		if traced {
			a0 = totalAlloc()
			sp = tr.beginOp("client.ingest", layerNone)
		}
		t0 := time.Now()
		ack, err := postIngest(ingest, d.base, payloads[i])
		lat := time.Since(t0)
		sp.end()
		r.attempted++
		if err == nil && ack.Epoch != epoch+1 {
			err = fmt.Errorf("acknowledged epoch %d, want %d", ack.Epoch, epoch+1)
		}
		if err != nil {
			r.failed++
			r.logf("batch %d: %v", i, err)
			return true
		}
		epoch = ack.Epoch
		ops.add(i, lat, traced)
		ops.edges += len(batches[i].Ins) + len(batches[i].Del)
		if traced {
			alloc = append(alloc, totalAlloc()-a0)
		}
		return true
	})
	close(stop)
	reads := <-readsDone
	heap := heapMB()

	var topk, rule, all, late samples
	for _, s := range reads {
		r.attempted++
		if s.err != nil {
			r.failed++
			continue
		}
		all = append(all, s.lat)
		late = append(late, s.late)
		if s.i%2 == 0 {
			topk = append(topk, s.lat)
		} else {
			rule = append(rule, s.lat)
		}
	}
	r.logf("stream: %d batches (+%d/-%d each), %d reads at one per %v", len(ops.wall), p.Ins, p.Del, len(reads), p.ReadEvery)
	r.setEndToEnd("ingest round trip", setup, ops, heap)
	r.logf("read_p50_ms   %10.3f ms   from due time, n=%d", ms(all.median()), len(all))
	r.logf("read_p99_ms   %10.3f ms   from due time, n=%d", ms(all.percentile(0.99)), len(all))
	r.logf("read lateness p99 %.3f ms, max %.3f ms", ms(late.percentile(0.99)), ms(late.percentile(1)))

	// Exactness: the served top-k equals a fresh single-store mine of the
	// engine's final graph under the engine's options.
	if err := checkServed(read, d, r); err != nil {
		return nil, err
	}
	eng := d.eng
	err = d.stop()
	d = nil
	if err != nil {
		return nil, err
	}

	if tr != nil {
		traces, err := tr.traces()
		if err != nil {
			return nil, err
		}
		var apply, explain, self samples
		for _, o := range traces {
			a := o.wall("core.ApplyBatch")
			x := o.durations("serve.Explain").total()
			apply = append(apply, a)
			explain = append(explain, x)
			self = append(self, time.Duration(o.root.End-o.root.Start)-a-x)
		}
		r.layer["core.apply_ms"] = ms(apply.median())
		r.layer["serve.explain_ms"] = ms(explain.median())
		r.layer["serve.ingest_self_ms"] = ms(self.median())
		r.layer["serve.topk_ms"] = ms(topk.median())
		r.layer["serve.rule_ms"] = ms(rule.median())
		r.layer["serve.read_p50_ms"] = ms(all.median())
		r.layer["serve.read_p99_ms"] = ms(all.percentile(0.99))
		r.layer["loadgen.late_p99_ms"] = ms(late.percentile(0.99))
		for _, a := range alloc {
			ops.allocMB = append(ops.allocMB, float64(a)/1e6)
		}
		r.setMineStats(eng.res)
		r.setIncStats(eng.stats)
		r.setLayerTimes(traces, ops)
	}
	return r, nil
}

// postIngest sends one batch and decodes the acknowledgement.
func postIngest(c *http.Client, base string, body []byte) (apiv1.IngestResponse, error) {
	var ack apiv1.IngestResponse
	resp, err := c.Post(base+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return ack, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return ack, err
	}
	if resp.StatusCode/100 != 2 {
		return ack, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(reply))
	}
	return ack, json.Unmarshal(reply, &ack)
}

// checkServed compares the final /v1/topk with a fresh mine.
func checkServed(c *http.Client, d *daemon, r *result) error {
	resp, err := c.Get(d.base + "/v1/topk")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var served apiv1.TopKResponse
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		return err
	}
	want, err := core.Mine(d.g, d.inc.Options())
	if err != nil {
		return fmt.Errorf("exactness reference: %w", err)
	}
	schema := d.g.Schema()
	if served.TotalEdges != want.TotalEdges || len(served.Rules) != len(want.TopK) {
		r.fail("served |E|=%d with %d rules, fresh mine |E|=%d with %d", served.TotalEdges, len(served.Rules), want.TotalEdges, len(want.TopK))
		return nil
	}
	for i, rule := range served.Rules {
		w := want.TopK[i]
		if rule.GR != w.GR.Format(schema) || rule.Supp != w.Supp || rule.Score != w.Score {
			r.fail("served rank %d is %s supp=%d score=%v, fresh mine has %s supp=%d score=%v",
				i+1, rule.GR, rule.Supp, rule.Score, w.GR.Format(schema), w.Supp, w.Score)
			return nil
		}
	}
	r.logf("exactness: final /v1/topk (epoch %d, |E|=%d, %d rules) equals a fresh core.Mine of the final graph", served.Epoch, served.TotalEdges, len(served.Rules))
	return nil
}

// ingestRequest renders a batch as the /v1/ingest body.
func ingestRequest(b core.Batch) apiv1.IngestRequest {
	wire := func(src, dst int, vals []graph.Value) apiv1.IngestEdge {
		e := apiv1.IngestEdge{Src: src, Dst: dst}
		for _, v := range vals {
			e.Vals = append(e.Vals, int(v))
		}
		return e
	}
	var req apiv1.IngestRequest
	for _, e := range b.Ins {
		req.Ins = append(req.Ins, wire(e.Src, e.Dst, e.Vals))
	}
	for _, e := range b.Del {
		req.Del = append(req.Del, wire(e.Src, e.Dst, e.Vals))
	}
	return req
}
