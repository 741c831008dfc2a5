package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"

	"grminer/internal/core"
	"grminer/internal/graph"
	"grminer/internal/rpc"
	"grminer/internal/store"
)

// DistributedPoint is one measured remote layout of the distributed
// experiment.
type DistributedPoint struct {
	// Workers and Strategy name the layout; Floor is the pruning mode
	// ("static" or "dynamic", as in the scaling and sharding reports).
	Workers  int    `json:"workers"`
	Strategy string `json:"strategy"`
	Floor    string `json:"floor"`
	// Seconds is the remote wall clock (offer round + merge, including all
	// wire traffic); Speedup divides the same-floor single-store seconds by
	// it.
	Seconds float64 `json:"seconds"`
	Speedup float64 `json:"speedup"`
	// Round1Offers counts candidates offered across workers; PrunedGlobal
	// the offers the OfferBound dropped worker-side.
	Round1Offers int64 `json:"round1_offers"`
	PrunedGlobal int64 `json:"pruned_global_offers"`
	// Round2Requests is the (candidate, shard) exact-count volume the
	// two-round merge fetched over the wire.
	Round2Requests int64 `json:"round2_exact_count_requests"`
	// Identical records whether the merged top-k matched the same-floor
	// single-store reference exactly.
	Identical bool `json:"identical_results"`
}

// DistributedReport is the machine-readable snapshot written to
// BENCH_distributed.json: mining over real shardd-protocol workers on
// loopback TCP against the single-store miner. The CI distributed-gate
// fails the build if the top-level aggregate reports identical_results
// false.
type DistributedReport struct {
	Dataset string             `json:"dataset"`
	Nodes   int                `json:"nodes"`
	Edges   int                `json:"edges"`
	MinSupp int                `json:"min_supp"`
	MinNhp  float64            `json:"min_nhp"`
	K       int                `json:"k"`
	Points  []DistributedPoint `json:"points"`
	// IncrementalBatches streamed through the remote sharded incremental
	// engine, each checked against a fresh single-store mine.
	IncrementalBatches int  `json:"incremental_batches"`
	Identical          bool `json:"identical_results"`
}

// Distributed measures remote sharded mining on the Pokec-like generator:
// shard workers are served by the real internal/rpc protocol over loopback
// TCP (the same code path shardd runs), and every merged top-k is compared
// against the single-store miner with identical effective semantics. With
// cfg.JSONDir set the trajectory is written to BENCH_distributed.json.
func Distributed(w io.Writer, cfg Config) error {
	g := cfg.pokec()
	st := store.Build(g)
	modes := floorModes(cfg)
	strategies := []graph.ShardStrategy{graph.ShardBySource, graph.ShardByRHS}
	if cfg.ShardBy != "" {
		s, err := graph.ParseShardStrategy(cfg.ShardBy)
		if err != nil {
			return err
		}
		strategies = []graph.ShardStrategy{s}
	}
	maxWorkers := cfg.MaxShards
	if maxWorkers <= 0 {
		maxWorkers = 4
	}
	var counts []int
	for _, n := range []int{2, 4, 8} {
		if n <= maxWorkers {
			counts = append(counts, n)
		}
	}
	if len(counts) == 0 {
		counts = []int{1}
	}

	// One loopback worker daemon per shard slot, reused across layouts
	// (each coordinator run is one protocol session).
	most := counts[len(counts)-1]
	addrs := make([]string, most)
	listeners := make([]net.Listener, most)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
		go rpc.ServeShards(l, 1, nil) //nolint:errcheck // closed below
	}
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()

	rep := DistributedReport{
		Dataset: "pokec-like", Nodes: g.NumNodes(), Edges: g.NumEdges(),
		MinSupp: cfg.MinSupp, MinNhp: cfg.MinNhp, K: cfg.K,
		Identical: true,
	}
	fmt.Fprintf(w, "== Distributed: shardd workers over loopback vs single store ==  |V|=%d |E|=%d minSupp=%d minNhp=%0.0f%% k=%d\n",
		rep.Nodes, rep.Edges, rep.MinSupp, 100*rep.MinNhp, rep.K)
	fmt.Fprintf(w, "  %-8s %-6s %-8s %10s %9s %9s %9s %10s\n",
		"workers", "by", "floor", "seconds", "speedup", "offers", "round2", "identical")

	for _, mode := range modes {
		seq, err := core.MineStore(st, mode.base)
		if err != nil {
			return err
		}
		seqSecs := seq.Stats.Duration.Seconds()
		fmt.Fprintf(w, "  %-8s %-6s %-8s %10.4f %9s %9s %9s %10s\n",
			"single", "-", mode.name, seqSecs, "1.00x", "-", "-", "-")
		for _, strategy := range strategies {
			for _, n := range counts {
				sc, err := core.NewShardCoordinatorFrom(g, mode.base,
					core.ShardOptions{Shards: n, Strategy: strategy}, rpc.NewFleet(addrs[:n], rpc.FleetOptions{}))
				if err != nil {
					return err
				}
				res, err := sc.Mine()
				if cerr := sc.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					return err
				}
				pt := DistributedPoint{
					Workers: n, Strategy: string(strategy), Floor: mode.name,
					Seconds:        res.Stats.Duration.Seconds(),
					Round1Offers:   res.Stats.ShardOffers,
					PrunedGlobal:   res.Stats.PrunedGlobal,
					Round2Requests: res.Stats.ExactCountRequests,
					Identical:      sameTop(res.TopK, seq.TopK),
				}
				if pt.Seconds > 0 && seqSecs > 0 {
					pt.Speedup = seqSecs / pt.Seconds
				}
				rep.Points = append(rep.Points, pt)
				rep.Identical = rep.Identical && pt.Identical
				fmt.Fprintf(w, "  %-8d %-6s %-8s %10.4f %8.2fx %9d %9d %10v\n",
					n, strategy, mode.name, pt.Seconds, pt.Speedup,
					pt.Round1Offers, pt.Round2Requests, pt.Identical)
			}
		}
	}

	// Remote incremental: stream batches through shardd workers (worker-side
	// pool maintenance) and check the maintained top-k per batch.
	incWorkers := 2
	if incWorkers > most {
		incWorkers = most
	}
	incIdentical, batches, err := distributedIncremental(g.Schema(), cfg, addrs[:incWorkers])
	if err != nil {
		return err
	}
	rep.IncrementalBatches = batches
	rep.Identical = rep.Identical && incIdentical
	fmt.Fprintf(w, "  incremental over %d remote workers: %d batches, identical per batch: %v\n",
		incWorkers, batches, incIdentical)

	if rep.Identical {
		fmt.Fprintln(w, "  shape: remote ≡ single store at every layout and floor mode ✓")
	} else {
		fmt.Fprintln(w, "  shape: WARNING — a remote run diverged from its single-store reference")
	}

	if cfg.JSONDir != "" {
		path := filepath.Join(cfg.JSONDir, "BENCH_distributed.json")
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

// distributedIncremental streams random valid batches through a remote
// sharded incremental engine, asserting the maintained top-k equals a
// fresh single-store mine after every batch.
func distributedIncremental(schema *graph.Schema, cfg Config, addrs []string) (identical bool, batches int, err error) {
	// A fresh, smaller graph: the engine owns it and appends.
	small := cfg
	small.PokecNodes = cfg.PokecNodes / 2
	if small.PokecNodes < 200 {
		small.PokecNodes = cfg.PokecNodes
	}
	g := small.pokec()
	opt := core.Options{
		MinSupp: cfg.MinSupp, MinScore: cfg.MinNhp, K: cfg.K,
		DynamicFloor: true, ExactGenerality: true,
	}
	inc, err := core.NewIncrementalShardedFrom(g, opt,
		core.ShardOptions{Shards: len(addrs)}, rpc.NewFleet(addrs, rpc.FleetOptions{}))
	if err != nil {
		return false, 0, err
	}
	defer inc.Close()

	r := rand.New(rand.NewSource(cfg.Seed + 41))
	identical = true
	const nBatches, batchSize = 3, 200
	for b := 0; b < nBatches; b++ {
		edges := make([]core.EdgeInsert, batchSize)
		for i := range edges {
			e := core.EdgeInsert{Src: r.Intn(g.NumNodes()), Dst: r.Intn(g.NumNodes())}
			for _, attr := range schema.Edge {
				e.Vals = append(e.Vals, graph.Value(1+r.Intn(attr.Domain)))
			}
			edges[i] = e
		}
		res, _, err := inc.ApplyBatch(core.Batch{Ins: edges})
		if err != nil {
			return false, b, err
		}
		ref, err := core.Mine(g, inc.Options())
		if err != nil {
			return false, b, err
		}
		identical = identical && sameTop(res.TopK, ref.TopK)
		batches++
	}
	return identical, batches, nil
}
