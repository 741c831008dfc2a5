package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// toy shrinks every workload so the whole suite runs in seconds.
var toy = map[string]params{
	"mine-pokec":   {Nodes: 400, Degree: 12, Setups: 3, MinOps: 3},
	"serve-stream": {Nodes: 400, Degree: 12, Held: 0.1, Ins: 16, Del: 4, Setups: 2, MinOps: 4, ReadEvery: 5 * time.Millisecond},
	// Nine batches make each shard's supervisor take a checkpoint.
	"shard-churn": {Nodes: 300, Degree: 12, Ins: 8, Del: 8, Setups: 2, MinOps: 9, Shards: 2},
}

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// checkMetrics asserts a summary carries exactly the listed metrics, each
// with its unit.
func checkMetrics(t *testing.T, got summary, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got.Metrics) != len(want) {
		t.Errorf("%d metrics, BENCHMARK.json lists %d", len(got.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := got.Metrics[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("metric %s in %s, BENCHMARK.json says %s", w.Name, m.Unit, w.Unit)
		}
	}
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	b := readBenchmark(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		wl, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %s is not run", w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				var tr *tracer
				if traced {
					tr = newTracer()
				}
				res, err := wl.run(toy[w.Name], 7, 100*time.Millisecond, tr)
				if err != nil {
					t.Fatal(err)
				}
				s := res.summary(traced)
				if !s.Correct || s.Failed != 0 || s.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d\n%s", traced, s.Correct, s.Failed, s.Attempted, res.report.String())
				}
				if !traced {
					checkMetrics(t, s, b.EndToEnd)
					for name, m := range s.Metrics {
						if !(m.Value > 0) {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
					continue
				}
				checkMetrics(t, s, b.PerLayer)
				checkSelfTimes(t, tr)
				path, err := tr.write(t.TempDir(), "spans.jsonl")
				if err != nil {
					t.Fatal(err)
				}
				if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
					t.Errorf("span file %s not written: %v", path, err)
				}
			}
		})
	}
}

// checkSelfTimes asserts that every traced operation's layer shares sum to
// its traced end-to-end time.
func checkSelfTimes(t *testing.T, tr *tracer) {
	t.Helper()
	ops, err := tr.traces()
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) == 0 {
		t.Fatal("no traced operations")
	}
	for _, o := range ops {
		var sum float64
		for _, layer := range reportedLayers {
			sum += o.self[layer]
		}
		if d := float64(o.root.End - o.root.Start); math.Abs(sum-d) > 1e-6*d+1 {
			t.Errorf("op %d: layer self times sum to %.0f ns, traced time %.0f ns (%v)", o.root.Op, sum, d, o.self)
		}
	}
}

func TestAttributeSplitsParallelSpans(t *testing.T) {
	// One batch of 100 ns: two shards' round trips overlap, and one of them
	// contains a nested serve-layer call.
	spans := []span{
		{Op: 1, ID: 1, Name: "root", Layer: layerCore, Start: 0, End: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "a", Layer: layerRPC, Start: 10, End: 50},
		{Op: 1, ID: 3, Parent: 1, Name: "b", Layer: layerRPC, Start: 20, End: 60},
		{Op: 1, ID: 4, Parent: 2, Name: "c", Layer: layerServe, Start: 30, End: 40},
	}
	_, self, err := attribute(spans)
	if err != nil {
		t.Fatal(err)
	}
	// [0,10) and [60,100) are the root's own; [10,20) a; [20,30) and
	// [40,50) shared by a and b; [30,40) c alone, the deepest; [50,60) b.
	want := map[string]float64{layerCore: 50, layerRPC: 40, layerServe: 10}
	for layer, v := range want {
		if math.Abs(self[layer]-v) > 1e-9 {
			t.Errorf("%s self = %v, want %v", layer, self[layer], v)
		}
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		label string
	}{
		{0, "p50"}, {5, "p50"}, {20, "p50"}, {21, "p52"}, {100, "p90"}, {1000, "p99"}, {2500, "p99"},
	} {
		var s samples
		// Descending input: tail must sort.
		for i := tc.n; i >= 1; i-- {
			s = append(s, time.Duration(i)*time.Millisecond)
		}
		v, label := s.tail()
		if label != tc.label {
			t.Errorf("n=%d: label %s, want %s", tc.n, label, tc.label)
		}
		beyond := 0
		for _, d := range s {
			if d > v {
				beyond++
			}
		}
		switch {
		case tc.n <= 2*tailBeyond && v != s.median():
			t.Errorf("n=%d: tail %v, want the median %v", tc.n, v, s.median())
		case tc.n > 2*tailBeyond && beyond != tailBeyond:
			t.Errorf("n=%d: %d samples beyond the tail, want exactly %d", tc.n, beyond, tailBeyond)
		}
	}
}

func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 5 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	stop := make(chan struct{})
	time.AfterFunc(600*time.Millisecond, func() { close(stop) })
	reads := openLoop(stop, 10*time.Millisecond, func(int) error { return get(srv.Client(), srv.URL) })

	var slow int
	var late time.Duration
	for _, s := range reads {
		if s.err != nil {
			t.Fatal(s.err)
		}
		if s.lat >= stall/2 {
			slow++
		}
		late = max(late, s.late)
	}
	// Only one request stalled, but every request due while it was stuck
	// waited for it: timed from their due times, several are slow, and the
	// generator reports how late it sent them.
	if slow < 5 {
		t.Errorf("%d reads at ≥ %v from due time, want the stall to delay several", slow, stall/2)
	}
	if late < stall*3/4 {
		t.Errorf("largest lateness %v, want about the %v stall", late, stall)
	}
}
