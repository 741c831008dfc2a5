package core_test

import (
	"math/rand"
	"runtime"
	"testing"

	"grminer/internal/baseline"
	"grminer/internal/core"
	"grminer/internal/datagen"
	"grminer/internal/dataset"
	"grminer/internal/graph"
	"grminer/internal/metrics"
	"grminer/internal/store"
)

// mineAt mines g with GOMAXPROCS, the width MineStore fans out to, set to
// width.
func mineAt(g *graph.Graph, opt core.Options, width int) (*core.Result, error) {
	return mineStoreAt(store.Build(g), opt, width)
}

// mineStoreAt is mineAt on a built store.
func mineStoreAt(st *store.Store, opt core.Options, width int) (*core.Result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
	return core.MineStore(st, opt)
}

// Parallel mining with a static floor must match the sequential miner (and
// hence the oracle) exactly, for every worker count.
func TestParallelMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		g := randomGraph(seed, seed%2 == 0, seed%3 != 0)
		opt := core.Options{MinSupp: 1, MinScore: 0.3, K: 10}
		seq, err := mineAt(g, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			par, err := mineAt(g, opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, "parallel-static", par.TopK, seq.TopK)
		}
	}
}

// Parallel + DynamicFloor with ExactGenerality must equal the sequential
// exact run and be deterministic across repetitions.
func TestParallelDynamicFloor(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomGraph(seed, true, seed%2 == 0)
		opt := core.Options{MinSupp: 1, MinScore: 0.3, K: 5, DynamicFloor: true, ExactGenerality: true}
		exact, err := mineAt(g, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			par, err := mineAt(g, opt, 4)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, "parallel-dynamic", par.TopK, exact.TopK)
		}
	}
}

// Parallel work accounting must cover the same search space: the examined
// counter (with static floor, where pruning is deterministic) matches the
// sequential run's.
func TestParallelStatsCoverage(t *testing.T) {
	g := randomGraph(3, true, true)
	seq, err := mineAt(g, core.Options{MinSupp: 2, MinScore: 0.4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := mineAt(g, core.Options{MinSupp: 2, MinScore: 0.4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if par.Stats.Examined != seq.Stats.Examined {
		t.Errorf("examined: parallel %d vs sequential %d", par.Stats.Examined, seq.Stats.Examined)
	}
	if par.Stats.TrivialSeen != seq.Stats.TrivialSeen {
		t.Errorf("trivial: parallel %d vs sequential %d", par.Stats.TrivialSeen, seq.Stats.TrivialSeen)
	}
	if par.Stats.Candidates != seq.Stats.Candidates {
		t.Errorf("candidates: parallel %d vs sequential %d", par.Stats.Candidates, seq.Stats.Candidates)
	}
}

func TestParallelOnToyAndEmpty(t *testing.T) {
	g := dataset.ToyDating()
	seq, err := mineAt(g, core.Options{MinSupp: 2, MinScore: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := mineAt(g, core.Options{MinSupp: 2, MinScore: 0.5}, 6)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "toy-parallel", par.TopK, seq.TopK)

	schema, _ := graph.NewSchema([]graph.Attribute{{Name: "A", Domain: 2}}, nil)
	empty := graph.MustNew(schema, 0)
	res, err := mineAt(empty, core.Options{MinSupp: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 0 {
		t.Error("parallel empty graph produced results")
	}
}

// Stress matrix for the fan-out: every width must return the sequential
// walk's answer for every combination of metric, K, floor mode, exact
// generality, generality filter on or off, and width 1–16. Run under -race
// this also exercises the task-queue draining for data races. Paper
// blocking (a dynamic floor without ExactGenerality) runs sequentially at
// every width; every other combination fans out.
func TestParallelStressMatrix(t *testing.T) {
	ms := []metrics.Metric{metrics.NhpMetric, metrics.ConfMetric, metrics.LiftMetric}
	thresholds := map[string]float64{"nhp": 0.3, "conf": 0.3, "lift": 1.1}
	workerCounts := []int{2, 3, 4, 6, 8, 12, 16}
	for seed := int64(0); seed < 4; seed++ {
		g := randomGraph(seed, seed%2 == 0, seed%3 != 0)
		st := store.Build(g)
		for _, m := range ms {
			for _, k := range []int{0, 5} {
				for _, dyn := range []bool{false, true} {
					for _, exact := range []bool{false, true} {
						for _, noGen := range []bool{false, true} {
							if dyn && k == 0 || exact && noGen {
								continue // DynamicFloor requires K > 0; no filter, nothing to decide exactly
							}
							label := m.Name
							if exact {
								label += "-exact"
							}
							if noGen {
								label += "-nogen"
							}
							opt := core.Options{
								MinSupp: 1, MinScore: thresholds[m.Name], K: k, Metric: m,
								DynamicFloor: dyn, ExactGenerality: exact, NoGeneralityFilter: noGen,
							}
							ref, err := mineStoreAt(st, opt, 1)
							if err != nil {
								t.Fatalf("%s seq: %v", label, err)
							}
							for _, workers := range workerCounts {
								par, err := mineStoreAt(st, opt, workers)
								if err != nil {
									t.Fatalf("%s x%d: %v", label, workers, err)
								}
								assertSameResults(t, label+"-stress", par.TopK, ref.TopK)
							}
						}
					}
				}
			}
		}
	}
}

// Regression: under IncludeTrivial, trivial GRs are candidates and hence
// generality blockers, and the exact generalisation check must honour
// that. A trivial specialisation whose only qualifying generalisation is a
// trivial GR enumerated by a *different* worker used to escape blocking in
// fanned-out dynamic-floor runs (the exact scan skipped trivial candidates
// unconditionally), diverging from the sequential results.
func TestParallelIncludeTrivialDynamicFloor(t *testing.T) {
	schema, err := graph.NewSchema([]graph.Attribute{
		{Name: "A1", Domain: 3, Homophily: true},
		{Name: "A2", Domain: 3, Homophily: true},
		{Name: "A3", Domain: 2, Homophily: true},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 8 + r.Intn(8)
		g := graph.MustNew(schema, n)
		for v := 0; v < n; v++ {
			if err := g.SetNodeValues(v, graph.Value(r.Intn(3)), graph.Value(r.Intn(3)), graph.Value(r.Intn(3))); err != nil {
				t.Fatal(err)
			}
		}
		for e, m := 0, 15+r.Intn(40); e < m; e++ {
			if _, err := g.AddEdge(r.Intn(n), r.Intn(n)); err != nil {
				t.Fatal(err)
			}
		}
		for _, minScore := range []float64{0.2, 0.4} {
			opt := core.Options{MinSupp: 1, MinScore: minScore, K: 30,
				DynamicFloor: true, ExactGenerality: true, IncludeTrivial: true}
			seq, err := mineAt(g, opt, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4} {
				par, err := mineAt(g, opt, workers)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, "include-trivial-dynamic", par.TopK, seq.TopK)
			}
		}
	}
}

// A graph whose only first-level partition is one RIGHT group (sources all
// null, targets all one value) must short-circuit to the sequential path:
// results and counters match the sequential run exactly even when many
// workers were requested.
func TestParallelSingleTaskShortCircuit(t *testing.T) {
	schema, err := graph.NewSchema([]graph.Attribute{{Name: "A", Domain: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.MustNew(schema, 10)
	for v := 5; v < 10; v++ {
		if err := g.SetNodeValues(v, 1); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < 5; e++ {
		if _, err := g.AddEdge(e, 5+e); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := mineAt(g, core.Options{MinSupp: 1, MinScore: 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := mineAt(g, core.Options{MinSupp: 1, MinScore: 0}, 8)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "single-task", par.TopK, seq.TopK)
	seqStats, parStats := core.Untimed(seq.Stats), core.Untimed(par.Stats)
	if seqStats != parStats {
		t.Errorf("short-circuit stats differ from sequential: %+v vs %+v", parStats, seqStats)
	}
}

// Width 1 runs the sequential walk; the answer must not move from the
// default width's.
func TestParallelValidation(t *testing.T) {
	g := dataset.ToyDating()
	opt := core.Options{MinSupp: 2, MinScore: 0.5}
	a, err := mineAt(g, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Mine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "p1", a.TopK, b.TopK)
}

// A moderately sized structured graph: parallel and sequential must agree
// under both floors and with IncludeTrivial.
func TestParallelOnSyntheticDBLP(t *testing.T) {
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 3000
	cfg.Pairs = 4000
	g := datagen.DBLP(cfg)
	st := store.Build(g)

	seq, err := mineStoreAt(st, core.Options{MinSupp: 10, MinScore: 0.4, K: 15, IncludeTrivial: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := mineStoreAt(st, core.Options{MinSupp: 10, MinScore: 0.4, K: 15, IncludeTrivial: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "dblp-parallel", par.TopK, seq.TopK)

	// And against the baseline BL2 for the non-trivial default setting.
	seqD, err := core.MineStore(st, core.Options{MinSupp: 10, MinScore: 0.4, K: 15})
	if err != nil {
		t.Fatal(err)
	}
	bl, err := baseline.BL2(g, baseline.Options{MinSupp: 10, MinScore: 0.4, K: 15})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "dblp-bl2", seqD.TopK, bl.TopK)
}
