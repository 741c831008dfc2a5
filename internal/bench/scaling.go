package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"grminer/internal/core"
	"grminer/internal/store"
)

// ScalingPoint is one measured width of the scaling experiment.
type ScalingPoint struct {
	// Workers is the width measured: the GOMAXPROCS the mine ran under.
	Workers int `json:"workers"`
	// Floor is the pruning mode: "static" (plain Definition 5 top-k) or
	// "dynamic" (GRMiner(k) with ExactGenerality, the dynamic-floor mine
	// that fans out).
	Floor string `json:"floor"`
	// Seconds is the mining wall clock.
	Seconds float64 `json:"seconds"`
	// Speedup is the same-floor sequential seconds divided by Seconds.
	Speedup float64 `json:"speedup"`
	// Identical records whether the ranked results matched the same-floor
	// sequential reference exactly.
	Identical bool `json:"identical_results"`
}

// ScalingReport is the machine-readable snapshot written to
// BENCH_scaling.json: the speedup trajectory of the static mine's fan-out
// over the sequential walk, in both floor modes.
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
	// CrossoverStatic / CrossoverDynamic record the smallest measured
	// width whose speedup exceeded 1.0 in each floor mode (0 = the fan-out
	// never beat the sequential walk on this machine).
	CrossoverStatic  int `json:"crossover_workers_static"`
	CrossoverDynamic int `json:"crossover_workers_dynamic"`
}

// Scaling measures the static mine's speedup trajectory on the Pokec-like
// generator at the configured size, in both floor modes, sweeping the width
// through GOMAXPROCS. Each fanned-out run is compared against the same
// options at width 1, the sequential walk, so the result lists must match
// exactly. With cfg.JSONDir set, the trajectory is also written to
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
		// Even on a single-CPU budget, exercise the fan-out once so the
		// trajectory always has at least one fanned-out point.
		counts = []int{2}
	}

	fmt.Fprintf(w, "== Scaling: the static mine's fan-out ==  |V|=%d |E|=%d minSupp=%d minNhp=%0.0f%% k=%d NumCPU=%d\n",
		rep.Nodes, rep.Edges, rep.MinSupp, 100*rep.MinNhp, rep.K, rep.NumCPU)
	fmt.Fprintf(w, "  %-10s %-8s %10s %9s %10s\n", "workers", "floor", "seconds", "speedup", "identical")
	allIdentical := true
	for _, mode := range modes {
		seq, err := mineAtWidth(st, mode.base, 1)
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

		for _, n := range counts {
			par, err := mineAtWidth(st, mode.base, n)
			if err != nil {
				return err
			}
			pt := ScalingPoint{
				Workers: n, Floor: mode.name,
				Seconds:   par.Stats.Duration.Seconds(),
				Identical: sameTop(par.TopK, seq.TopK),
			}
			// Guard degenerate timings: Inf/NaN would make the JSON
			// marshal fail and discard the whole measured trajectory.
			if pt.Seconds > 0 && seqSecs > 0 {
				pt.Speedup = seqSecs / pt.Seconds
			}
			rep.Points = append(rep.Points, pt)
			allIdentical = allIdentical && pt.Identical
			fmt.Fprintf(w, "  %-10d %-8s %10.4f %8.2fx %10v\n", n, mode.name, pt.Seconds, pt.Speedup, pt.Identical)
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
	switch {
	case !allIdentical:
		fmt.Fprintln(w, "  shape: WARNING — a fanned-out run diverged from its sequential reference")
	case rep.NumCPU == 1:
		fmt.Fprintln(w, "  shape: results identical; speedup bounded by a single CPU on this machine")
	default:
		fmt.Fprintln(w, "  shape: results identical at every width and floor mode")
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

// crossoverLabel renders a measured crossover width for the report.
func crossoverLabel(workers int) string {
	if workers == 0 {
		return "not reached"
	}
	return fmt.Sprintf("%d workers", workers)
}

// mineAtWidth runs MineStore with GOMAXPROCS, the width the static mine
// fans out to, set to n, and restores it.
func mineAtWidth(st *store.Store, opt core.Options, n int) (*core.Result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	return core.MineStore(st, opt)
}
