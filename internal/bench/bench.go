// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section VI) on the synthetic stand-in
// datasets, printing rows/series in the same format the paper reports.
// Absolute numbers differ from the paper (different data scale, Go instead
// of C++, different hardware); the curves' shapes are the reproduction
// target. See DESIGN.md §5 for the per-experiment index; experiments with
// machine-readable output drop BENCH_*.json snapshots (Config.JSONDir).
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"grminer/internal/baseline"
	"grminer/internal/core"
	"grminer/internal/datagen"
	"grminer/internal/graph"
	"grminer/internal/store"
)

// Config scales the harness. Defaults keep a full `grbench -exp all` run in
// the minutes range on a laptop; raise PokecNodes/PokecDeg toward the real
// dataset (1.44M nodes, avg degree ~14.7) for paper-scale runs.
type Config struct {
	// PokecNodes and PokecDeg control the synthetic Pokec size.
	PokecNodes int
	PokecDeg   float64
	// DBLPAuthors and DBLPPairs control the synthetic DBLP size; defaults
	// match the real dataset exactly.
	DBLPAuthors int
	DBLPPairs   int
	// Seed drives both generators.
	Seed int64
	// MinSupp, MinNhp, K are the default parameter settings of Section
	// VI-D (the paper defaults to absolute 50, 50%, 100).
	MinSupp int
	MinNhp  float64
	K       int
	// SkipBaselines drops BL1/BL2 from the figure sweeps (they dominate
	// the runtime, exactly as the paper reports).
	SkipBaselines bool
	// Procs caps the widths (GOMAXPROCS) the scaling experiment sweeps
	// (0 = runtime.NumCPU()).
	Procs int
	// MaxShards caps the shard counts the sharding experiment sweeps
	// (0 = 8); ShardBy restricts it to one routing strategy ("" = both).
	MaxShards int
	ShardBy   string
	// JSONDir, when non-empty, is where experiments drop machine-readable
	// BENCH_*.json snapshots alongside their text reports.
	JSONDir string
	// ServeAddr points the serving experiment at an externally launched
	// grminerd (host:port); empty hosts the server in-process.
	ServeAddr string
	// FailoverWorkers / FailoverStandby point the failover experiment at
	// externally launched shardd daemons (comma-separated host:port lists);
	// empty hosts killable daemons in-process. FailoverKillPid names the
	// external victim process (the daemon at the first FailoverWorkers
	// address) to SIGKILL mid-run.
	FailoverWorkers string
	FailoverStandby string
	FailoverKillPid int
}

// DefaultConfig returns the laptop-scale defaults.
func DefaultConfig() Config {
	return Config{
		PokecNodes:  10000,
		PokecDeg:    12,
		DBLPAuthors: 28702,
		DBLPPairs:   33416,
		Seed:        1,
		MinSupp:     50,
		MinNhp:      0.5,
		K:           100,
	}
}

// pokec builds the Pokec-like graph for cfg.
func (cfg Config) pokec() *graph.Graph {
	pc := datagen.DefaultPokecConfig()
	pc.Nodes = cfg.PokecNodes
	pc.AvgOutDegree = cfg.PokecDeg
	pc.Seed = cfg.Seed
	return datagen.Pokec(pc)
}

// dblp builds the DBLP-like graph for cfg.
func (cfg Config) dblp() *graph.Graph {
	dc := datagen.DefaultDBLPConfig()
	dc.Authors = cfg.DBLPAuthors
	dc.Pairs = cfg.DBLPPairs
	dc.Seed = cfg.Seed
	return datagen.DBLP(dc)
}

// pokec4 restricts the Pokec graph to the four largest-domain node
// attributes (Age, Region, Education, What-Looking-For), the setting of the
// paper's Figure 4a-4c ("the dimensionality of search space for GRs is 8").
func (cfg Config) pokec4() (*graph.Graph, error) {
	g := cfg.pokec()
	return g.Restrict([]int{datagen.PokecAge, datagen.PokecRegion, datagen.PokecEdu, datagen.PokecLooking})
}

// Experiment names, in run order for "all".
var Names = []string{
	"toy", "tableIIa", "tableIIb",
	"fig4a", "fig4b", "fig4c", "fig4d",
	"dblp-time", "metrics", "storesize", "ablation", "scaling",
	"incremental", "dynamic", "sharding", "distributed", "failover", "serving",
}

// Run executes one named experiment, writing its report to w.
func Run(name string, w io.Writer, cfg Config) error {
	switch name {
	case "toy":
		return Toy(w)
	case "tableIIa":
		return TableIIa(w, cfg)
	case "tableIIb":
		return TableIIb(w, cfg)
	case "fig4a":
		return Fig4a(w, cfg)
	case "fig4b":
		return Fig4b(w, cfg)
	case "fig4c":
		return Fig4c(w, cfg)
	case "fig4d":
		return Fig4d(w, cfg)
	case "dblp-time":
		return DBLPTime(w, cfg)
	case "metrics":
		return MetricsStudy(w, cfg)
	case "storesize":
		return StoreSize(w, cfg)
	case "ablation":
		return Ablation(w, cfg)
	case "scaling":
		return Scaling(w, cfg)
	case "incremental":
		return Incremental(w, cfg)
	case "dynamic":
		return Dynamic(w, cfg)
	case "sharding":
		return Sharding(w, cfg)
	case "distributed":
		return Distributed(w, cfg)
	case "failover":
		return Failover(w, cfg)
	case "serving":
		return Serving(w, cfg)
	case "all":
		for _, n := range Names {
			if err := Run(n, w, cfg); err != nil {
				return fmt.Errorf("bench: %s: %w", n, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	default:
		return fmt.Errorf("bench: unknown experiment %q (have %v)", name, append(Names, "all"))
	}
}

// floorMode pairs a pruning-mode label with the reference options the
// engine-comparison experiments (scaling, sharding) mine under.
type floorMode struct {
	name string
	base core.Options
}

// floorModes returns the two reference modes those experiments sweep:
// "static" (plain Definition 5 top-k) and "dynamic" (GRMiner(k) with
// ExactGenerality — the semantics the parallel, incremental, and sharded
// engines all guarantee under a dynamic floor). Keeping this in one place
// keeps the two BENCH reports measuring the same baselines.
func floorModes(cfg Config) []floorMode {
	return []floorMode{
		{"static", core.Options{MinSupp: cfg.MinSupp, MinScore: cfg.MinNhp, K: cfg.K}},
		{"dynamic", core.Options{
			MinSupp: cfg.MinSupp, MinScore: cfg.MinNhp, K: cfg.K,
			DynamicFloor: true, ExactGenerality: true,
		}},
	}
}

// timing runners ------------------------------------------------------------

// algoTimes measures one parameter point for all four algorithms; absent
// algorithms (SkipBaselines) report -1.
type algoTimes struct {
	label                       string
	grminerK, grminer, bl2, bl1 float64
	examinedK, examinedNoK      int64
	results                     int
}

func secs(d time.Duration) float64 { return d.Seconds() }

// measurePoint runs GRMiner(k), GRMiner, and (optionally) BL2/BL1 at the
// given thresholds over a shared store/graph.
func measurePoint(label string, g *graph.Graph, st *store.Store, minSupp int, minNhp float64, k int, skipBL bool) (algoTimes, error) {
	pt := algoTimes{label: label, bl1: -1, bl2: -1}

	resK, err := core.MineStore(st, core.Options{
		MinSupp: minSupp, MinScore: minNhp, K: k, DynamicFloor: true,
	})
	if err != nil {
		return pt, err
	}
	pt.grminerK = secs(resK.Stats.Duration)
	pt.examinedK = resK.Stats.Examined
	pt.results = len(resK.TopK)

	res, err := core.MineStore(st, core.Options{MinSupp: minSupp, MinScore: minNhp})
	if err != nil {
		return pt, err
	}
	pt.grminer = secs(res.Stats.Duration)
	pt.examinedNoK = res.Stats.Examined

	if !skipBL {
		b2, err := baseline.BL2Store(st, baseline.Options{MinSupp: minSupp, MinScore: minNhp, K: k})
		if err != nil {
			return pt, err
		}
		pt.bl2 = secs(b2.Duration)
		b1, err := baseline.BL1(g, baseline.Options{MinSupp: minSupp, MinScore: minNhp, K: k})
		if err != nil {
			return pt, err
		}
		pt.bl1 = secs(b1.Duration)
	}
	return pt, nil
}

// printSeries renders a sweep as an aligned table.
func printSeries(w io.Writer, title, paramName string, pts []algoTimes, skipBL bool) {
	fmt.Fprintf(w, "%s\n", title)
	if skipBL {
		fmt.Fprintf(w, "  %-14s %12s %12s %10s %12s %12s\n",
			paramName, "GRMiner(k)/s", "GRMiner/s", "results", "examined(k)", "examined")
	} else {
		fmt.Fprintf(w, "  %-14s %12s %12s %12s %12s %10s\n",
			paramName, "GRMiner(k)/s", "GRMiner/s", "BL2/s", "BL1/s", "results")
	}
	for _, p := range pts {
		if skipBL {
			fmt.Fprintf(w, "  %-14s %12.4f %12.4f %10d %12d %12d\n",
				p.label, p.grminerK, p.grminer, p.results, p.examinedK, p.examinedNoK)
		} else {
			fmt.Fprintf(w, "  %-14s %12.4f %12.4f %12.4f %12.4f %10d\n",
				p.label, p.grminerK, p.grminer, p.bl2, p.bl1, p.results)
		}
	}
}

// shapeMinBaseline is the shortest baseline time shapeCheck compares: below
// it the timings are timer noise (a point where nothing qualifies takes
// about a millisecond on every algorithm), not the sweep's shape.
const shapeMinBaseline = 5 * time.Millisecond

// shapeCheck prints whether the expected ordering held across a sweep; the
// harness is honest about deviations instead of hiding them. A point whose
// baselines took under shapeMinBaseline is listed as not compared.
func shapeCheck(w io.Writer, pts []algoTimes, skipBL bool) {
	if skipBL {
		return
	}
	ok := true
	var noise []string
	for _, p := range pts {
		if min(p.bl1, p.bl2) < shapeMinBaseline.Seconds() {
			noise = append(noise, p.label)
			continue
		}
		if p.grminerK > p.bl2 || p.grminer > p.bl1 {
			ok = false
		}
	}
	if ok {
		fmt.Fprintln(w, "  shape: GRMiner variants ≤ baselines at every compared point ✓")
	} else {
		fmt.Fprintln(w, "  shape: WARNING — some baseline point beat a GRMiner variant")
	}
	if len(noise) > 0 {
		fmt.Fprintf(w, "  shape: %d point(s) not compared, baselines under %v: %s\n",
			len(noise), shapeMinBaseline, strings.Join(noise, ", "))
	}
}
