// Command grbench regenerates the paper's tables and figures. DESIGN.md §5
// carries the experiment index (one entry per -exp name, implemented in
// internal/bench/experiments.go and internal/bench/scaling.go); experiments
// with machine-readable output drop BENCH_*.json snapshots next to their
// text reports.
//
// Usage:
//
//	grbench -exp all
//	grbench -exp fig4a -pokec-nodes 50000 -pokec-deg 15
//	grbench -exp tableIIb
//	grbench -exp fig4d -skip-baselines
//	grbench -exp scaling -procs 8 -auto
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"grminer/internal/bench"
)

func main() {
	cfg := bench.DefaultConfig()
	exp := flag.String("exp", "all", "experiment: "+strings.Join(append(bench.Names, "all"), " | "))
	flag.IntVar(&cfg.PokecNodes, "pokec-nodes", cfg.PokecNodes, "Pokec-like node count")
	flag.Float64Var(&cfg.PokecDeg, "pokec-deg", cfg.PokecDeg, "Pokec-like average out-degree")
	flag.IntVar(&cfg.DBLPAuthors, "dblp-authors", cfg.DBLPAuthors, "DBLP-like author count")
	flag.IntVar(&cfg.DBLPPairs, "dblp-pairs", cfg.DBLPPairs, "DBLP-like collaboration pairs")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "generator seed")
	flag.IntVar(&cfg.MinSupp, "minsupp", cfg.MinSupp, "default absolute minSupp for sweeps")
	flag.Float64Var(&cfg.MinNhp, "minnhp", cfg.MinNhp, "default minNhp for sweeps")
	flag.IntVar(&cfg.K, "k", cfg.K, "default top-k for sweeps")
	flag.BoolVar(&cfg.SkipBaselines, "skip-baselines", cfg.SkipBaselines, "omit BL1/BL2 from figure sweeps")
	flag.IntVar(&cfg.Procs, "procs", cfg.Procs, "worker-count cap for the scaling experiment (0 = all cores)")
	flag.BoolVar(&cfg.Auto, "auto", cfg.Auto, "add the planner-chosen point to the scaling experiment")
	flag.IntVar(&cfg.MaxShards, "shards", cfg.MaxShards, "shard-count cap for the sharding experiment (0 = 8)")
	flag.StringVar(&cfg.ShardBy, "shard-by", cfg.ShardBy, "restrict the sharding experiment to one strategy: src | rhs (empty = both)")
	flag.StringVar(&cfg.JSONDir, "json-dir", ".", "directory for BENCH_*.json snapshots (empty = skip)")
	flag.StringVar(&cfg.ServeAddr, "serve-addr", cfg.ServeAddr, "drive the serving experiment against an already-running grminerd at host:port (empty = in-process server)")
	flag.StringVar(&cfg.FailoverWorkers, "failover-workers", cfg.FailoverWorkers, "drive the failover experiment against already-running shardd daemons (host:port,... — empty = in-process killable daemons)")
	flag.StringVar(&cfg.FailoverStandby, "failover-standby", cfg.FailoverStandby, "standby shardd addresses for the external failover experiment (host:port,...)")
	flag.IntVar(&cfg.FailoverKillPid, "failover-kill-pid", cfg.FailoverKillPid, "pid of the external victim shardd (the first -failover-workers address) to SIGKILL mid-run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile (captured after the run) to this file")
	flag.Parse()

	if err := run(*exp, cfg, *cpuprofile, *memprofile); err != nil {
		fmt.Fprintln(os.Stderr, "grbench:", err)
		os.Exit(1)
	}
}

func run(exp string, cfg bench.Config, cpuprofile, memprofile string) error {
	if cfg.JSONDir != "" {
		if err := os.MkdirAll(cfg.JSONDir, 0o755); err != nil {
			return err
		}
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := bench.Run(exp, os.Stdout, cfg); err != nil {
		return err
	}
	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		// The allocs profile carries total allocation counts since process
		// start — the hot-path allocation evidence DESIGN.md §7 asks CI to
		// publish — alongside the post-GC live heap.
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			return err
		}
	}
	return nil
}
