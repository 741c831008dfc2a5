package core_test

import (
	"math/rand"
	"testing"

	"grminer/internal/baseline"
	"grminer/internal/core"
	"grminer/internal/datagen"
	"grminer/internal/dataset"
	"grminer/internal/graph"
	"grminer/internal/metrics"
	"grminer/internal/store"
)

// Parallel mining with a static floor must match the sequential miner (and
// hence the oracle) exactly, for every worker count.
func TestParallelMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		g := randomGraph(seed, seed%2 == 0, seed%3 != 0)
		seq, err := core.Mine(g, core.Options{MinSupp: 1, MinScore: 0.3, K: 10})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			par, err := core.Mine(g, core.Options{
				MinSupp: 1, MinScore: 0.3, K: 10, Parallelism: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, "parallel-static", par.TopK, seq.TopK)
		}
	}
}

// Parallel + DynamicFloor (which auto-enables ExactGenerality) must equal
// the sequential exact run and be deterministic across repetitions.
func TestParallelDynamicFloor(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomGraph(seed, true, seed%2 == 0)
		exact, err := core.Mine(g, core.Options{
			MinSupp: 1, MinScore: 0.3, K: 5, DynamicFloor: true, ExactGenerality: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			par, err := core.Mine(g, core.Options{
				MinSupp: 1, MinScore: 0.3, K: 5, DynamicFloor: true, Parallelism: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, "parallel-dynamic", par.TopK, exact.TopK)
			if !par.Options.ExactGenerality {
				t.Fatal("parallel dynamic run did not auto-enable ExactGenerality")
			}
		}
	}
}

// Parallel work accounting must cover the same search space: the examined
// counter (with static floor, where pruning is deterministic) matches the
// sequential run's.
func TestParallelStatsCoverage(t *testing.T) {
	g := randomGraph(3, true, true)
	seq, err := core.Mine(g, core.Options{MinSupp: 2, MinScore: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.Mine(g, core.Options{MinSupp: 2, MinScore: 0.4, Parallelism: 4})
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
	seq, err := core.Mine(g, core.Options{MinSupp: 2, MinScore: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.Mine(g, core.Options{MinSupp: 2, MinScore: 0.5, Parallelism: 6})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "toy-parallel", par.TopK, seq.TopK)

	schema, _ := graph.NewSchema([]graph.Attribute{{Name: "A", Domain: 2}}, nil)
	empty := graph.MustNew(schema, 0)
	res, err := core.Mine(empty, core.Options{MinSupp: 1, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 0 {
		t.Error("parallel empty graph produced results")
	}
}

// Stress matrix for the lock-light engine: sequential and parallel results
// must agree for every combination of metric, K, floor mode, generality
// filter on or off, and worker count 1–16. Run under -race this also exercises the atomic floor and the
// task-queue draining for data races. The DynamicFloor reference runs with
// ExactGenerality, the semantics the parallel engine guarantees.
func TestParallelStressMatrix(t *testing.T) {
	ms := []metrics.Metric{metrics.NhpMetric, metrics.ConfMetric, metrics.LiftMetric}
	thresholds := map[string]float64{"nhp": 0.3, "conf": 0.3, "lift": 1.1}
	workerCounts := []int{1, 2, 3, 4, 6, 8, 12, 16}
	for seed := int64(0); seed < 4; seed++ {
		g := randomGraph(seed, seed%2 == 0, seed%3 != 0)
		for _, m := range ms {
			for _, k := range []int{0, 5} {
				for _, dyn := range []bool{false, true} {
					for _, noGen := range []bool{false, true} {
						if dyn && k == 0 {
							continue // DynamicFloor requires K > 0
						}
						label := m.Name
						if noGen {
							label += "-nogen"
						}
						// Two sequential references: Parallelism ≤ 1 runs the
						// paper-faithful plain floor, while Parallelism > 1
						// auto-enables ExactGenerality under DynamicFloor (the
						// documented parallel semantics).
						refPlain, err := core.Mine(g, core.Options{
							MinSupp: 1, MinScore: thresholds[m.Name], K: k, Metric: m,
							DynamicFloor: dyn, NoGeneralityFilter: noGen,
						})
						if err != nil {
							t.Fatalf("%s seq: %v", label, err)
						}
						refExact, err := core.Mine(g, core.Options{
							MinSupp: 1, MinScore: thresholds[m.Name], K: k, Metric: m,
							DynamicFloor: dyn, ExactGenerality: dyn, NoGeneralityFilter: noGen,
						})
						if err != nil {
							t.Fatalf("%s seq exact: %v", label, err)
						}
						for _, workers := range workerCounts {
							par, err := core.Mine(g, core.Options{
								MinSupp: 1, MinScore: thresholds[m.Name], K: k, Metric: m,
								DynamicFloor: dyn, NoGeneralityFilter: noGen, Parallelism: workers,
							})
							if err != nil {
								t.Fatalf("%s x%d: %v", label, workers, err)
							}
							want := refExact.TopK
							if workers <= 1 {
								want = refPlain.TopK
							}
							assertSameResults(t, label+"-stress", par.TopK, want)
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
// parallel dynamic-floor runs (the exact scan skipped trivial candidates
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
			seq, err := core.Mine(g, core.Options{MinSupp: 1, MinScore: minScore, K: 30,
				DynamicFloor: true, ExactGenerality: true, IncludeTrivial: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4} {
				par, err := core.Mine(g, core.Options{MinSupp: 1, MinScore: minScore, K: 30,
					DynamicFloor: true, IncludeTrivial: true, Parallelism: workers})
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
	seq, err := core.Mine(g, core.Options{MinSupp: 1, MinScore: 0})
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.Mine(g, core.Options{MinSupp: 1, MinScore: 0, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "single-task", par.TopK, seq.TopK)
	seqStats, parStats := seq.Stats, par.Stats
	seqStats.Duration, parStats.Duration = 0, 0
	if seqStats != parStats {
		t.Errorf("short-circuit stats differ from sequential: %+v vs %+v", parStats, seqStats)
	}
}

func TestParallelValidation(t *testing.T) {
	g := dataset.ToyDating()
	if _, err := core.Mine(g, core.Options{Parallelism: -2}); err == nil {
		t.Error("negative parallelism accepted")
	}
	// Parallelism 1 is sequential; must behave identically.
	a, err := core.Mine(g, core.Options{MinSupp: 2, MinScore: 0.5, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Mine(g, core.Options{MinSupp: 2, MinScore: 0.5})
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

	seq, err := core.MineStore(st, core.Options{MinSupp: 10, MinScore: 0.4, K: 15, IncludeTrivial: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.MineStore(st, core.Options{
		MinSupp: 10, MinScore: 0.4, K: 15, IncludeTrivial: true, Parallelism: 4,
	})
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
