// Command grminerd serves live top-k group-relationship mining over a
// versioned HTTP/JSON API. It loads (or generates) a network, seeds an
// incremental mining engine through the grminer.Open facade, and then
// answers read traffic from RCU-published snapshots while POST /v1/ingest
// batches stream through the engine — readers are wait-free and never
// block the miner.
//
// Usage:
//
//	grminerd -data pokec -nodes 20000 -minsupp 500 -minnhp 0.5 -k 20
//	grminerd -addr 127.0.0.1:8080 -data toy -minsupp 2
//	grminerd -data pokec -workers 127.0.0.1:9401,127.0.0.1:9402
//	grminerd -data pokec -workers 127.0.0.1:9401,127.0.0.1:9402 \
//	    -shards 8 -standby 127.0.0.1:9409
//
// With remote shards, -shards may exceed the worker count (each shardd
// multiplexes several shard slots; run shardd with a matching -shards
// capacity) and -standby lists spare daemons that take over a shard when
// its worker dies mid-run (the coordinator replays the lost shard's
// batches; see DESIGN.md §9 and OPERATIONS.md).
//
// Endpoints (see DESIGN.md §8 and the README's Serving section):
//
//	GET  /v1/topk        current ranked rules (?limit=N)
//	GET  /v1/rules/{id}  one rule by 1-based rank, with explain counts
//	POST /v1/recommend   per-node suggestions or an RHS campaign
//	POST /v1/propagate   GR-influence class propagation
//	POST /v1/ingest      one atomic insert/retract batch
//	GET  /v1/events      SSE rule-drift stream (one event per batch)
//	GET  /v1/status      engine identity, ingest totals, worker fleet health
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"grminer"
	"grminer/internal/cli"
	"grminer/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		data     = flag.String("data", "", "built-in dataset: toy | pokec | dblp")
		schemaF  = flag.String("schema", "", "schema file (with -nodes-file/-edges-file)")
		nodesF   = flag.String("nodes-file", "", "node attribute TSV")
		edgesF   = flag.String("edges-file", "", "edge TSV")
		nodes    = flag.Int("nodes", 20000, "synthetic dataset size (pokec)")
		deg      = flag.Float64("deg", 15, "synthetic average out-degree (pokec)")
		seed     = flag.Int64("seed", 1, "generator seed")
		minSupp  = flag.Int("minsupp", 50, "absolute minimum support")
		minScore = flag.Float64("minnhp", 0.5, "minimum score (minNhp)")
		k        = flag.Int("k", 20, "top-k (0 = unlimited)")
		metric   = flag.String("metric", "nhp", "ranking metric: nhp|conf|laplace|gain|piatetsky-shapiro|conviction|lift")
		dynamic  = flag.Bool("dynamic", true, "GRMiner(k): upgrade the pruning floor to the k-th best score")
		trivial  = flag.Bool("include-trivial", false, "also report trivial homophily GRs")
		workers  = flag.String("workers", "", "comma-separated shardd addresses (host:port,...) for one remote shard per worker; mining width follows GOMAXPROCS")
		auto     = flag.Bool("auto", false, "auto-tune descriptor caps from the input size")
		shards   = flag.Int("shards", 0, "serve over N deterministic edge shards (0 = single store; may exceed the -workers address count to multiplex)")
		shardBy  = flag.String("shard-by", "src", "shard routing strategy: src | rhs")
		standby  = flag.String("standby", "", "comma-separated standby shardd addresses for failover replacement (remote shards only)")
		chkEvery = flag.Int("checkpoint-interval", grminer.DefaultCheckpointInterval, "checkpoint each shard's worker state every N acknowledged ingest batches, truncating its replay log so recovery replays at most N batches (0 = never checkpoint, full replay; sharded engines only)")
	)
	flag.Parse()

	strategy, err := grminer.ParseShardStrategy(*shardBy)
	if err != nil {
		fail(err)
	}
	remote, err := cli.ParseWorkers(*workers)
	if err != nil {
		fail(err)
	}
	standbys, err := cli.ParseAddrList("-standby", *standby)
	if err != nil {
		fail(err)
	}
	if err := cli.CheckShardFlags(flag.CommandLine, remote, standbys, *shards, *chkEvery); err != nil {
		fail(err)
	}
	g, err := cli.LoadGraph(*data, *schemaF, *nodesF, *edgesF, *nodes, *deg, *seed)
	if err != nil {
		fail(err)
	}
	m, err := grminer.MetricByName(*metric)
	if err != nil {
		fail(err)
	}
	cfg := grminer.EngineConfig{
		Mode: grminer.ModeIncremental,
		Options: grminer.Options{
			MinSupp:        *minSupp,
			MinScore:       *minScore,
			K:              *k,
			DynamicFloor:   *dynamic && *k > 0,
			Metric:         m,
			IncludeTrivial: *trivial,
		},
		Workers:  remote,
		Standbys: standbys,
		Auto:     *auto,
	}
	if *shards > 0 || len(remote) > 0 {
		cfg.Shard = grminer.ShardOptions{Shards: *shards, Strategy: strategy,
			CheckpointInterval: cli.CheckpointInterval(*chkEvery)}
	}

	gs := g.Stats()
	log.Printf("network: %d nodes, %d edges, %d node attrs, %d edge attrs",
		gs.Nodes, gs.Edges, gs.NodeAttrs, gs.EdgeAttrs)
	start := time.Now()
	eng, err := grminer.Open(g, cfg)
	if err != nil {
		fail(err)
	}
	defer eng.Close()
	res := eng.Result()
	log.Printf("initial mine: |E|=%d, %d GRs tracked in top-%d (%v)",
		res.TotalEdges, len(res.TopK), eng.Options().K, time.Since(start).Round(time.Millisecond))

	srv := serve.New(eng, g)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: serve.ReadHeaderTimeout}
	log.Printf("grminerd listening on %s (API v1)", ln.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	select {
	case sig := <-stop:
		log.Printf("received %v, draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	}
}

// fail reports a startup error; a shard/worker contradiction names the
// flags involved.
func fail(err error) {
	var mismatch *grminer.ErrShardWorkerMismatch
	if errors.As(err, &mismatch) {
		fmt.Fprintf(os.Stderr, "grminerd: -shards %d leaves %d of the -workers addresses idle (raise -shards to at least %d to use every daemon, or drop -shards to default to one per worker)\n",
			mismatch.Shards, mismatch.Workers-mismatch.Shards, mismatch.Workers)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "grminerd:", err)
	os.Exit(1)
}
