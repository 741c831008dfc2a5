// Command perfbench is grminer's benchmark. It runs one workload for a fixed
// time, checks that every answer the program gave is exact, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the last
// line of its output:
//
//	bash perfbench/run.sh --workload mine-pokec --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - mine-pokec: repeated one-shot mines over the Pokec-like graph;
//   - serve-stream: mixed ingest batches and open-loop reads against an
//     in-process /v1 server over the single-store incremental engine;
//   - shard-churn: balanced insert/delete batches through the sharded
//     incremental engine over two loopback shard daemons.
//
// README.md lists every metric and the layer metric each end-to-end metric
// should follow.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// spanDir is where a traced run writes its spans, relative to the checkout
// root the benchmark runs from.
const spanDir = ".bench_build/spans"

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints; every workload reports
// every one of them. The operation is a mine (mine-pokec), an ingest round
// trip over HTTP (serve-stream) or an ApplyBatch call (shard-churn).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"edges_per_s", "1/s"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics a traced run prints. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"store.build_ms", "ms"},
	{"core.mine_ms", "ms"},
	{"core.alloc_mb_per_op", "MB"},
	{"core.examined", "count"},
	{"core.hom_scans", "count"},
	{"core.partition_calls", "count"},
	{"core.blocked_ratio", "ratio"},
	{"core.apply_ms", "ms"},
	{"core.recounted", "count"},
	{"core.remine_selectivity", "ratio"},
	{"core.tracked", "count"},
	{"core.full_remines", "count"},
	{"core.coord_self_ms", "ms"},
	{"core.shard_skew", "ratio"},
	{"serve.explain_ms", "ms"},
	{"serve.ingest_self_ms", "ms"},
	{"serve.topk_ms", "ms"},
	{"serve.rule_ms", "ms"},
	{"serve.read_p50_ms", "ms"},
	{"serve.read_p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"rpc.ingest_ms", "ms"},
	{"rpc.straggler_ms", "ms"},
	{"rpc.counts_ms", "ms"},
	{"rpc.counts_grs", "count"},
	{"rpc.deltas", "count"},
	{"rpc.bytes_per_batch", "B"},
	{"rpc.checkpoint_ms", "ms"},
	{"rpc.checkpoint_bytes", "B"},
	{"rpc.retries", "count"},
	{"rpc.replacements", "count"},
	{"self.core_ms", "ms"},
	{"self.rpc_ms", "ms"},
	{"self.serve_ms", "ms"},
	{"self.unaccounted_ms", "ms"},
	{"trace.overhead", "ratio"},
}

// workloads maps each workload to its runner and its full-size inputs.
var workloads = map[string]struct {
	run  func(p params, seed int64, dur time.Duration, tr *tracer) (*result, error)
	size params
}{
	"mine-pokec": {runMine, params{Nodes: 5000, Degree: 12, Setups: 51, MinOps: 3}},
	"serve-stream": {runServe, params{Nodes: 5000, Degree: 12, Held: 0.1, Ins: 64, Del: 16,
		Setups: 5, MinOps: 5, ReadEvery: 10 * time.Millisecond}},
	"shard-churn": {runShard, params{Nodes: 1000, Degree: 12, Ins: 32, Del: 32,
		Setups: 5, MinOps: 5, Shards: 2}},
}

// result is one run's outcome.
type result struct {
	report    strings.Builder // human-readable lines printed before the JSON
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	correct   bool
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, correct: true}
}

func (r *result) logf(format string, args ...any) {
	fmt.Fprintf(&r.report, format+"\n", args...)
}

// fail records an exactness failure; the whole run is then incorrect.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.logf("EXACTNESS FAILURE: "+format, args...)
}

// summary is the last line of output.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) summary(traced bool) summary {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	s := summary{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		s.Metrics[d.name] = metricJSON{Value: vals[d.name], Unit: d.unit}
	}
	return s
}

func main() {
	workload := flag.String("workload", "", "workload to run: mine-pokec, serve-stream or shard-churn")
	seed := flag.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1 traces the layers and prints the per-layer metrics")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds ≥ 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Println(environment("."))
	res, err := w.run(w.size, *seed, time.Duration(*seconds)*time.Second, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if tr != nil {
		path, err := tr.write(spanDir, fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		res.logf("spans: %s", path)
	}
	os.Stdout.WriteString(res.report.String())
	line, err := json.Marshal(res.summary(tr != nil))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// environment describes the machine and the source the run measured. A
// checkout without git history is identified by a digest of its Go sources.
func environment(root string) string {
	return fmt.Sprintf("env: nproc=%d gomaxprocs=%d go=%s commit=%s source=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitHead(root), sourceDigest(root))
}

// gitHead resolves HEAD without running git; "none" outside a git checkout.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	sha, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref)))
	if err != nil {
		return ref
	}
	return strings.TrimSpace(string(sha))
}

// sourceDigest hashes every Go source and module file under root.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil)[:8])
}
