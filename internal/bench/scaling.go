package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"grminer/internal/core"
	"grminer/internal/store"
)

// ScalingPoint is one measured worker count of the scaling experiment.
type ScalingPoint struct {
	// Workers is the Parallelism setting measured.
	Workers int `json:"workers"`
	// Floor is the pruning mode: "static" (plain Definition 5 top-k) or
	// "dynamic" (GRMiner(k) with ExactGenerality, the semantics the
	// parallel engine guarantees under a dynamic floor).
	Floor string `json:"floor"`
	// Seconds is the mining wall clock.
	Seconds float64 `json:"seconds"`
	// Speedup is the same-floor sequential seconds divided by Seconds.
	Speedup float64 `json:"speedup"`
	// Identical records whether the ranked results matched the same-floor
	// sequential reference exactly.
	Identical bool `json:"identical_results"`
	// Auto marks the point whose worker count the planner (core.PlanFor) chose.
	Auto bool `json:"auto,omitempty"`
}

// ScalingReport is the machine-readable snapshot written to
// BENCH_scaling.json: the speedup trajectory of the lock-light parallel
// engine over the sequential miner, in both floor modes.
type ScalingReport struct {
	Dataset           string         `json:"dataset"`
	Nodes             int            `json:"nodes"`
	Edges             int            `json:"edges"`
	MinSupp           int            `json:"min_supp"`
	MinNhp            float64        `json:"min_nhp"`
	K                 int            `json:"k"`
	NumCPU            int            `json:"num_cpu"`
	SequentialStatic  float64        `json:"sequential_static_seconds"`
	SequentialDynamic float64        `json:"sequential_dynamic_seconds"`
	Points            []ScalingPoint `json:"points"`
	Plan              string         `json:"plan,omitempty"`
	// CrossoverStatic / CrossoverDynamic record the smallest measured
	// worker count whose speedup exceeded 1.0 in each floor mode (0 = the
	// parallel engine never beat the sequential miner on this machine) —
	// the number the planner's crossover constants are validated against on
	// multi-core CI runners.
	CrossoverStatic  int `json:"crossover_workers_static"`
	CrossoverDynamic int `json:"crossover_workers_dynamic"`
}

// Scaling measures the parallel engine's speedup trajectory on the
// Pokec-like generator at the configured size, in both floor modes. Each
// parallel run is compared against the sequential run with identical
// semantics — static floor both sides, or dynamic floor with
// ExactGenerality both sides — so the result lists must match exactly.
// With cfg.JSONDir set, the trajectory is also written to
// BENCH_scaling.json.
func Scaling(w io.Writer, cfg Config) error {
	g := cfg.pokec()
	st := store.Build(g)
	modes := floorModes(cfg)

	rep := ScalingReport{
		Dataset: "pokec-like", Nodes: g.NumNodes(), Edges: g.NumEdges(),
		MinSupp: cfg.MinSupp, MinNhp: cfg.MinNhp, K: cfg.K,
		NumCPU: runtime.NumCPU(),
	}

	budget := cfg.Procs
	if budget <= 0 {
		budget = runtime.NumCPU()
	}
	var counts []int
	for _, n := range []int{2, 4, 8, 16, 32} {
		if n <= budget {
			counts = append(counts, n)
		}
	}
	if len(counts) == 0 {
		// Even on a single-CPU budget, exercise the engine once so the
		// trajectory always has at least one parallel point.
		counts = []int{2}
	}
	autoWorkers := 0
	if cfg.Auto {
		plan := core.PlanFor(st, cfg.Procs, core.Options{})
		rep.Plan = plan.String()
		if plan.Parallelism > 1 {
			autoWorkers = plan.Parallelism
		}
	}

	fmt.Fprintf(w, "== Scaling: lock-light parallel engine ==  |V|=%d |E|=%d minSupp=%d minNhp=%0.0f%% k=%d NumCPU=%d\n",
		rep.Nodes, rep.Edges, rep.MinSupp, 100*rep.MinNhp, rep.K, rep.NumCPU)
	fmt.Fprintf(w, "  %-10s %-8s %10s %9s %10s\n", "workers", "floor", "seconds", "speedup", "identical")
	allIdentical := true
	for _, mode := range modes {
		seq, err := core.MineStore(st, mode.base)
		if err != nil {
			return err
		}
		seqSecs := seq.Stats.Duration.Seconds()
		if mode.name == "static" {
			rep.SequentialStatic = seqSecs
		} else {
			rep.SequentialDynamic = seqSecs
		}
		fmt.Fprintf(w, "  %-10s %-8s %10.4f %9s %10s\n", "seq", mode.name, seqSecs, "1.00x", "-")

		// When the planned count is already swept, the matching point is
		// marked instead of mining the same configuration twice.
		modeCounts := counts
		if autoWorkers > 0 && !slices.Contains(counts, autoWorkers) {
			modeCounts = append(append([]int(nil), counts...), autoWorkers)
		}
		for _, n := range modeCounts {
			auto := n == autoWorkers
			opt := mode.base
			opt.Parallelism = n
			par, err := core.MineStore(st, opt)
			if err != nil {
				return err
			}
			pt := ScalingPoint{
				Workers: n, Floor: mode.name,
				Seconds:   par.Stats.Duration.Seconds(),
				Identical: sameTop(par.TopK, seq.TopK),
				Auto:      auto,
			}
			// Guard degenerate timings: Inf/NaN would make the JSON
			// marshal fail and discard the whole measured trajectory.
			if pt.Seconds > 0 && seqSecs > 0 {
				pt.Speedup = seqSecs / pt.Seconds
			}
			rep.Points = append(rep.Points, pt)
			allIdentical = allIdentical && pt.Identical
			label := fmt.Sprintf("%d", n)
			if auto {
				label += " (auto)"
			}
			fmt.Fprintf(w, "  %-10s %-8s %10.4f %8.2fx %10v\n", label, mode.name, pt.Seconds, pt.Speedup, pt.Identical)
		}
	}
	for _, pt := range rep.Points {
		if pt.Speedup <= 1 {
			continue
		}
		switch {
		case pt.Floor == "static" && (rep.CrossoverStatic == 0 || pt.Workers < rep.CrossoverStatic):
			rep.CrossoverStatic = pt.Workers
		case pt.Floor == "dynamic" && (rep.CrossoverDynamic == 0 || pt.Workers < rep.CrossoverDynamic):
			rep.CrossoverDynamic = pt.Workers
		}
	}
	fmt.Fprintf(w, "  crossover: static=%s dynamic=%s\n",
		crossoverLabel(rep.CrossoverStatic), crossoverLabel(rep.CrossoverDynamic))
	if rep.Plan != "" {
		fmt.Fprintf(w, "  %s\n", rep.Plan)
	}
	switch {
	case !allIdentical:
		fmt.Fprintln(w, "  shape: WARNING — a parallel run diverged from its sequential reference")
	case rep.NumCPU == 1:
		fmt.Fprintln(w, "  shape: results identical; speedup bounded by a single CPU on this machine")
	default:
		fmt.Fprintln(w, "  shape: results identical at every worker count and floor mode")
	}

	if cfg.JSONDir != "" {
		path := filepath.Join(cfg.JSONDir, "BENCH_scaling.json")
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

// crossoverLabel renders a measured crossover worker count for the report.
func crossoverLabel(workers int) string {
	if workers == 0 {
		return "not reached"
	}
	return fmt.Sprintf("%d workers", workers)
}
