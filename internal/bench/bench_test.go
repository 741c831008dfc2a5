package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// tinyConfig keeps harness tests fast.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.PokecNodes = 1500
	cfg.PokecDeg = 8
	cfg.DBLPAuthors = 2000
	cfg.DBLPPairs = 2500
	cfg.MinSupp = 20
	cfg.K = 20
	// Two shards keep the sharding experiment's relaxed offer threshold
	// (⌈minSupp/shards⌉) from exploding the harness smoke test's runtime.
	cfg.MaxShards = 2
	return cfg
}

func TestToyReport(t *testing.T) {
	var buf bytes.Buffer
	if err := Toy(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The report must carry the paper's exact toy numbers.
	for _, want := range []string{
		"supp= 7/30", "conf= 50.0%", // GR1
		"supp= 0/30",  // GR2
		"conf= 66.7%", // GR3
		"nhp=100.0%",  // GR4
	} {
		if !strings.Contains(out, want) {
			t.Errorf("toy report missing %q:\n%s", want, out)
		}
	}
}

// reportRun is one run of an experiment that has a report test. It runs
// once per test binary: its TestEveryExperimentRuns subtest and its report
// test check the same output.
type reportRun struct {
	once    sync.Once
	cfg     Config
	out     string
	err     error // from Run
	json    []byte
	jsonErr error // from reading the snapshot
}

var reportRuns = map[string]*reportRun{
	"scaling": {}, "sharding": {}, "distributed": {}, "serving": {},
}

// reportConfig sizes each report experiment.
func reportConfig(name string) Config {
	cfg := tinyConfig()
	switch name {
	case "scaling":
		cfg.Procs = 4
	case "sharding", "serving":
		cfg.PokecNodes = 600
		cfg.PokecDeg = 6
	case "distributed":
		cfg.PokecNodes = 600
		cfg.PokecDeg = 6
		cfg.MaxShards = 4
	}
	return cfg
}

// runReport runs the named experiment through Run on its first call and
// returns the cached run, its BENCH_<name>.json snapshot included.
func runReport(name string) *reportRun {
	r := reportRuns[name]
	r.once.Do(func() {
		r.cfg = reportConfig(name)
		dir, err := os.MkdirTemp("", "grbench-"+name)
		if err != nil {
			r.err = err
			return
		}
		defer os.RemoveAll(dir)
		r.cfg.JSONDir = dir
		var buf bytes.Buffer
		r.err = Run(name, &buf, r.cfg)
		r.out = buf.String()
		r.json, r.jsonErr = os.ReadFile(filepath.Join(dir, "BENCH_"+name+".json"))
	})
	return r
}

func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test is slow")
	}
	for _, name := range Names {
		if _, ok := reportRuns[name]; ok {
			// Its report test checks the same run's JSON snapshot.
			t.Run(name, func(t *testing.T) {
				r := runReport(name)
				if r.err != nil {
					t.Fatalf("%s: %v", name, r.err)
				}
				if r.out == "" {
					t.Errorf("%s produced no output", name)
				}
				if strings.Contains(r.out, "WARNING") {
					t.Errorf("%s diverged:\n%s", name, r.out)
				}
			})
			continue
		}
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig()
			// Two slow experiments run on smaller graphs; their checks hold
			// at any size.
			switch name {
			case "fig4a":
				// Its baselines at minSupp 2 take most of the test's time:
				// |E| 4,000 instead of 12,000.
				cfg.PokecNodes = 500
			case "failover":
				// Its 4 shards would lower minSupp 20 to a per-shard offer
				// threshold of 5, where the support-only shard pools blow
				// up; 40 is the CI chaos step's threshold.
				cfg.MinSupp = 40
				cfg.PokecNodes = 600
			}
			var buf bytes.Buffer
			if err := Run(name, &buf, cfg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if buf.Len() == 0 {
				t.Errorf("%s produced no output", name)
			}
			if name == "failover" && strings.Contains(buf.String(), "WARNING") {
				t.Errorf("failover diverged, replaced nothing, or replayed past the checkpoint interval:\n%s", buf.String())
			}
			if strings.HasPrefix(name, "fig4") && strings.Contains(buf.String(), "shape: WARNING") {
				t.Errorf("a baseline beat a GRMiner variant at a compared point:\n%s", buf.String())
			}
		})
	}
}

// The scaling experiment must produce identical parallel results and a
// well-formed BENCH_scaling.json snapshot.
func TestScalingReport(t *testing.T) {
	r := runReport("scaling")
	if r.err != nil {
		t.Fatal(r.err)
	}
	if strings.Contains(r.out, "WARNING") {
		t.Errorf("scaling run diverged from sequential:\n%s", r.out)
	}
	data, err := r.json, r.jsonErr
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	var rep ScalingReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if rep.SequentialStatic <= 0 || rep.SequentialDynamic <= 0 || len(rep.Points) == 0 {
		t.Errorf("snapshot incomplete: %+v", rep)
	}
	seenFloors := map[string]bool{}
	for _, pt := range rep.Points {
		if !pt.Identical {
			t.Errorf("worker count %d (%s floor) diverged from sequential", pt.Workers, pt.Floor)
		}
		if pt.Workers < 2 {
			t.Errorf("parallel point with %d workers", pt.Workers)
		}
		seenFloors[pt.Floor] = true
	}
	if !seenFloors["static"] || !seenFloors["dynamic"] {
		t.Errorf("missing floor mode in %v", seenFloors)
	}
}

func TestRunUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("nope", &buf, tinyConfig()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTableIIaShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var buf bytes.Buffer
	if err := TableIIa(&buf, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Ranked by nhp") || !strings.Contains(out, "Ranked by conf") {
		t.Fatalf("Table IIa output malformed:\n%s", out)
	}
	// The conf ranking must surface trivial homophily GRs on this
	// homophilous network; the nhp ranking must not.
	if !strings.Contains(out, "[trivial]") {
		t.Errorf("conf ranking shows no trivial GRs:\n%s", out)
	}
}

func TestStoreSizeReport(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig()
	if err := StoreSize(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "smaller") {
		t.Errorf("storesize report: %s", buf.String())
	}
}

// The distributed experiment must produce identical merged results over
// real loopback protocol workers at every layout and a well-formed
// BENCH_distributed.json snapshot.
func TestDistributedReport(t *testing.T) {
	if testing.Short() {
		t.Skip("spins loopback workers and mines repeatedly")
	}
	r := runReport("distributed")
	if r.err != nil {
		t.Fatal(r.err)
	}
	if strings.Contains(r.out, "WARNING") {
		t.Errorf("distributed run diverged:\n%s", r.out)
	}
	data, err := r.json, r.jsonErr
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	var rep DistributedReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if !rep.Identical {
		t.Error("top-level identical_results is false")
	}
	if rep.IncrementalBatches == 0 || len(rep.Points) == 0 {
		t.Errorf("snapshot incomplete: %+v", rep)
	}
	for _, pt := range rep.Points {
		if !pt.Identical {
			t.Errorf("%d workers by %s (%s floor) diverged", pt.Workers, pt.Strategy, pt.Floor)
		}
	}
}

// The sharding experiment must produce identical merged results at every
// layout and a well-formed BENCH_sharding.json snapshot.
func TestShardingReport(t *testing.T) {
	r := runReport("sharding")
	if r.err != nil {
		t.Fatal(r.err)
	}
	if strings.Contains(r.out, "WARNING") {
		t.Errorf("sharded run diverged from single store:\n%s", r.out)
	}
	data, err := r.json, r.jsonErr
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	var rep ShardingReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if !rep.Identical {
		t.Error("top-level identical_results is false")
	}
	if rep.SequentialStatic <= 0 || rep.SequentialDynamic <= 0 || len(rep.Points) == 0 {
		t.Errorf("snapshot incomplete: %+v", rep)
	}
	seen := map[string]bool{}
	for _, pt := range rep.Points {
		if !pt.Identical {
			t.Errorf("%d shards by %s (%s floor) diverged", pt.Shards, pt.Strategy, pt.Floor)
		}
		if pt.Shards > r.cfg.MaxShards {
			t.Errorf("point with %d shards exceeds the configured cap %d", pt.Shards, r.cfg.MaxShards)
		}
		seen[pt.Floor+"/"+pt.Strategy] = true
	}
	for _, want := range []string{"static/src", "static/rhs", "dynamic/src", "dynamic/rhs"} {
		if !seen[want] {
			t.Errorf("missing %s points in the sweep", want)
		}
	}
}

// The serving experiment must report a served top-k identical to both its
// shadow oracle and an offline re-mine, plus a well-formed
// BENCH_serving.json with measured latency percentiles.
func TestServingReport(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a loopback HTTP server and mines repeatedly")
	}
	r := runReport("serving")
	if r.err != nil {
		t.Fatal(r.err)
	}
	if strings.Contains(r.out, "WARNING") {
		t.Errorf("serving run diverged:\n%s", r.out)
	}
	data, err := r.json, r.jsonErr
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	var rep ServingReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if !rep.Identical || !rep.ServedIdentical || !rep.OfflineIdentical {
		t.Errorf("equivalence flags not all true: %+v", rep)
	}
	if rep.External {
		t.Error("in-process run marked external")
	}
	if rep.Batches == 0 || rep.Ingest.Count != rep.Batches {
		t.Errorf("ingest accounting off: %+v", rep.Ingest)
	}
	if rep.ReadTopK.Count == 0 || rep.ReadRule.Count == 0 {
		t.Error("readers recorded no requests")
	}
	for _, lat := range []ServingLatency{rep.ReadTopK, rep.ReadRule, rep.Ingest} {
		if lat.P50Ms <= 0 || lat.P99Ms < lat.P50Ms || lat.MaxMs < lat.P99Ms {
			t.Errorf("latency summary not ordered: %+v", lat)
		}
	}
	if rep.FinalEpoch != uint64(rep.Batches)+1 {
		t.Errorf("final epoch %d, want %d", rep.FinalEpoch, rep.Batches+1)
	}
}
