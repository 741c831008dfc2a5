// Command grminer mines top-k group relationships from an attributed
// network, ranked by non-homophily preference (or any other built-in
// metric).
//
// Usage:
//
//	grminer -data toy
//	grminer -data pokec -nodes 20000 -minsupp 500 -minnhp 0.5 -k 20
//	grminer -data pokec -nodes 200000 -auto -stats
//	grminer -schema s.txt -nodes-file n.tsv -edges-file e.tsv -minsupp 50
//	grminer -data dblp -query "(A:DB) -[S:often]-> (A:DM)"
//	grminer -data pokec -nodes 20000 -follow new-edges.tsv -batch 500
//	generator | grminer -data toy -minsupp 2 -follow -
//	grminer -data pokec -nodes 20000 -workers 127.0.0.1:9401,127.0.0.1:9402
//
// With -workers host:port,... the shards live on remote shardd daemons
// (cmd/shardd): each worker receives its shard at session start and mines
// it behind the internal/rpc protocol. A number is refused: mining width
// follows GOMAXPROCS. Remote mining composes with -follow: routed batches
// stream to the owning worker, which maintains its own candidate pool.
//
// With -query the tool reports supp/conf/nhp of one GR instead of mining
// (the hypothesis-workbench mode of the paper's Remark 3).
//
// With -follow the tool mines the loaded network once, then ingests edge
// changes from a stream (a file, or stdin with "-") through the incremental
// engine, reporting the maintained top-k's churn per batch. Stream lines
// use the edge-file format ("src dst v1 v2...", whitespace separated) for
// insertions; a "-" prefix ("- src dst v1 v2..." or "-src dst v1 v2...")
// retracts one live edge matching those endpoints and values exactly,
// resolved against the graph as it stood before the batch. A blank line
// commits the pending batch, -batch N also commits every N changes, and
// EOF commits the remainder. Malformed lines, edges the schema rejects, and
// retractions matching no live edge abort the run with a non-zero exit
// before the bad batch mutates anything.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"grminer"
	"grminer/internal/cli"
	"grminer/internal/serve/apiv1"
)

// info receives the informational output (banners, plans, batch progress).
// It is stdout normally and stderr under -json, so piped JSON stays clean.
var info io.Writer = os.Stdout

// jsonOut switches the final top-k to the versioned v1 JSON schema.
var jsonOut bool

func main() {
	var (
		data      = flag.String("data", "", "built-in dataset: toy | pokec | dblp")
		schemaF   = flag.String("schema", "", "schema file (with -nodes-file/-edges-file)")
		nodesF    = flag.String("nodes-file", "", "node attribute TSV")
		edgesF    = flag.String("edges-file", "", "edge TSV")
		nodes     = flag.Int("nodes", 20000, "synthetic dataset size (pokec)")
		deg       = flag.Float64("deg", 15, "synthetic average out-degree (pokec)")
		seed      = flag.Int64("seed", 1, "generator seed")
		minSupp   = flag.Int("minsupp", 50, "absolute minimum support")
		minScore  = flag.Float64("minnhp", 0.5, "minimum score (minNhp)")
		k         = flag.Int("k", 20, "top-k (0 = unlimited)")
		metric    = flag.String("metric", "nhp", "ranking metric: nhp|conf|laplace|gain|piatetsky-shapiro|conviction|lift")
		dynamic   = flag.Bool("dynamic", true, "GRMiner(k): upgrade the pruning floor to the k-th best score")
		trivial   = flag.Bool("include-trivial", false, "also report trivial homophily GRs")
		query     = flag.String("query", "", "evaluate one GR instead of mining, e.g. \"(SEX:M) -> (SEX:F)\"")
		showStats = flag.Bool("stats", false, "print search statistics")
		out       = flag.String("out", "", "also write results to this file")
		format    = flag.String("format", "tsv", "output file format: tsv | json")
		workers   = flag.String("workers", "", "comma-separated shardd addresses (host:port,...) to mine one shard per remote worker; mining width follows GOMAXPROCS")
		auto      = flag.Bool("auto", false, "auto-tune descriptor caps from the input size")
		follow    = flag.String("follow", "", "after the initial mine, stream edge insertions (\"src dst vals...\") and retractions (\"- src dst vals...\") from this file (\"-\" = stdin) through the incremental engine")
		batchSize = flag.Int("batch", 0, "in -follow mode, commit a batch every N changes in addition to blank-line commits (0 = blank lines/EOF only)")
		shards    = flag.Int("shards", 0, "mine over N deterministic edge shards merged by the shard coordinator (0 = single store; may exceed the -workers address count to multiplex)")
		standby   = flag.String("standby", "", "comma-separated standby shardd addresses for failover replacement (remote shards only)")
		shardBy   = flag.String("shard-by", "src", "shard routing strategy: src (hash of source node) | rhs (hash of destination attribute row)")
		chkEvery  = flag.Int("checkpoint-interval", grminer.DefaultCheckpointInterval, "checkpoint each shard's worker state every N acknowledged -follow batches, truncating its replay log so recovery replays at most N batches (0 = never checkpoint, full replay; sharded -follow only)")
		jsonFlag  = flag.Bool("json", false, "write the top-k as versioned v1 API JSON to stdout (informational output moves to stderr)")
	)
	flag.Parse()
	if *jsonFlag {
		jsonOut = true
		info = os.Stderr
	}

	strategy, err := grminer.ParseShardStrategy(*shardBy)
	if err != nil {
		fail(err)
	}
	// An explicit -shards below the -workers address count (idle daemons)
	// surfaces as ErrShardWorkerMismatch from the facade; above it, the
	// extra shards multiplex onto the daemons.
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
	var shardOpt grminer.ShardOptions
	if *shards > 0 || len(remote) > 0 {
		shardOpt = grminer.ShardOptions{Shards: *shards, Strategy: strategy,
			CheckpointInterval: cli.CheckpointInterval(*chkEvery)}
	}

	g, err := cli.LoadGraph(*data, *schemaF, *nodesF, *edgesF, *nodes, *deg, *seed)
	if err != nil {
		fail(err)
	}
	gs := g.Stats()
	fmt.Fprintf(info, "network: %d nodes, %d edges, %d node attrs, %d edge attrs\n",
		gs.Nodes, gs.Edges, gs.NodeAttrs, gs.EdgeAttrs)

	if *query != "" {
		wb := grminer.NewWorkbench(g)
		rep, err := wb.QueryText(*query)
		if err != nil {
			fail(err)
		}
		fmt.Println(rep.String(g.Schema()))
		return
	}

	m, err := grminer.MetricByName(*metric)
	if err != nil {
		fail(err)
	}
	opt := grminer.Options{
		MinSupp:        *minSupp,
		MinScore:       *minScore,
		K:              *k,
		DynamicFloor:   *dynamic && *k > 0,
		Metric:         m,
		IncludeTrivial: *trivial,
	}
	cfg := grminer.EngineConfig{
		Options:  opt,
		Shard:    shardOpt,
		Workers:  remote,
		Standbys: standbys,
		Auto:     *auto,
	}
	var in io.Reader
	if *follow != "" {
		// Open the stream before the (possibly long) initial mine so a bad
		// path fails instantly.
		r, closeIn, err := openFollowStream(*follow)
		if err != nil {
			fail(err)
		}
		defer closeIn()
		in = r
		cfg.Mode = grminer.ModeIncremental
	}
	// Every mode × topology goes through the facade.
	eng, err := grminer.Open(g, cfg)
	if err != nil {
		fail(err)
	}
	defer eng.Close()
	if len(remote) > 0 {
		fmt.Fprintf(info, "remote workers: %s\n", strings.Join(remote, " "))
	}
	if plan, planned := eng.AutoPlan(); planned {
		fmt.Fprintln(info, plan)
	}
	if sp, sharded := eng.ShardPlan(); sharded {
		fmt.Fprintln(info, sp)
	}
	if in != nil {
		if err := runFollow(eng, g, m, in, *batchSize, *showStats, *out, *format); err != nil {
			fail(err)
		}
		return
	}
	res, err := eng.Mine()
	if err != nil {
		fail(err)
	}
	printTopK(res, g, m)
	if *showStats {
		fmt.Fprintf(info, "stats: examined=%d trivial=%d prunedSupp=%d prunedScore=%d blocked=%d partitions=%d in %v\n",
			res.Stats.Examined, res.Stats.TrivialSeen, res.Stats.PrunedSupp,
			res.Stats.PrunedScore, res.Stats.Blocked, res.Stats.PartitionCalls, res.Stats.Duration)
		if res.Stats.ShardOffers > 0 {
			fmt.Fprintf(info, "shard protocol: offers=%d bound-dropped-offers=%d round2-requests=%d\n",
				res.Stats.ShardOffers, res.Stats.PrunedGlobal, res.Stats.ExactCountRequests)
		}
	}
	if *out != "" {
		if err := writeResults(res, g, *out, *format); err != nil {
			fail(err)
		}
		fmt.Fprintf(info, "wrote %s (%s)\n", *out, *format)
	}
}

// fail reports a fatal error and exits; a shard/worker contradiction names
// the flags involved.
func fail(err error) {
	var mismatch *grminer.ErrShardWorkerMismatch
	if errors.As(err, &mismatch) {
		fmt.Fprintf(os.Stderr, "grminer: -shards %d leaves %d of the -workers addresses idle (raise -shards to at least %d to use every daemon, or drop -shards to default to one per worker)\n",
			mismatch.Shards, mismatch.Workers-mismatch.Shards, mismatch.Workers)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "grminer:", err)
	os.Exit(1)
}

func printTopK(res *grminer.Result, g *grminer.Graph, m grminer.Metric) {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(apiv1.TopKFromResult(res, g.Schema(), 0)); err != nil {
			fail(err)
		}
		return
	}
	fmt.Printf("top-%d GRs by %s (minSupp=%d, threshold=%.2f):\n",
		res.Options.K, m.Name, res.Options.MinSupp, res.Options.MinScore)
	for i, s := range res.TopK {
		fmt.Printf("%3d. %-60s %s=%6.2f%% supp=%-8d conf=%5.1f%%\n",
			i+1, s.GR.Format(g.Schema()), m.Name, 100*s.Score, s.Supp, 100*s.Conf)
	}
}

// openFollowStream resolves a -follow source: stdin for "-", an opened
// file otherwise. The returned closer is a no-op for stdin.
func openFollowStream(src string) (io.Reader, func(), error) {
	if src == "-" {
		return os.Stdin, func() {}, nil
	}
	f, err := os.Open(src)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// runFollow streams edge insertions and retractions from in through the
// (already seeded) incremental engine: single-store, or sharded (batches
// then route to the owning shard) when the engine was opened with shards or
// remote workers. Any malformed line, schema-rejected edge, or retraction
// matching no live edge aborts with an error before its batch is applied —
// the engine validates batches atomically, so no partial graph is ever
// mined.
func runFollow(inc *grminer.Engine, g *grminer.Graph, m grminer.Metric, in io.Reader, batchSize int, showStats bool, outPath, outFormat string) error {
	res := inc.Result()
	fmt.Fprintf(info, "initial mine: |E|=%d, %d GRs tracked in top-%d\n",
		res.TotalEdges, len(res.TopK), inc.Options().K)

	prev := res.TopK
	batchNo := 0
	var batch grminer.Batch
	commit := func() error {
		if len(batch.Ins) == 0 && len(batch.Del) == 0 {
			return nil
		}
		batchNo++
		r, bs, err := inc.ApplyBatch(batch)
		if err != nil {
			return fmt.Errorf("batch %d rejected: %w", batchNo, err)
		}
		batch = grminer.Batch{}
		changed := grminer.TopKChanged(prev, r.TopK)
		prev = r.TopK
		work := fmt.Sprintf("remined %d/%d subtrees", bs.SubtreesRemined, bs.SubtreesTotal)
		if bs.FullRemines > 0 {
			work = "full re-mine (metric not delta-safe)"
		}
		fmt.Fprintf(info, "batch %3d: +%d/-%d edges  |E|=%-8d top-k changed=%-3d %s  %v\n",
			batchNo, bs.Edges, bs.Deleted, r.TotalEdges, changed, work, bs.Duration)
		return nil
	}

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	ne := len(g.Schema().Edge)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			if err := commit(); err != nil {
				return err
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		ins, del, isDel, err := parseFollowLine(line, ne)
		if err != nil {
			return fmt.Errorf("follow line %d: %w", lineNo, err)
		}
		if isDel {
			batch.Del = append(batch.Del, del)
		} else {
			batch.Ins = append(batch.Ins, ins)
		}
		if batchSize > 0 && len(batch.Ins)+len(batch.Del) >= batchSize {
			if err := commit(); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading follow stream: %w", err)
	}
	if err := commit(); err != nil {
		return err
	}

	final := inc.Result()
	printTopK(final, g, m)
	if showStats {
		c := inc.Cumulative()
		fmt.Fprintf(info, "stats: batches=%d edges=%d deleted=%d tracked=%d recounted=%d dropped=%d remined=%d/%d full-remines=%d in %v\n",
			c.Batches, c.Edges, c.Deleted, c.Tracked, c.Recounted, c.Dropped,
			c.SubtreesRemined, c.SubtreesTotal, c.FullRemines, c.Duration)
	}
	if outPath != "" {
		if err := writeResults(final, g, outPath, outFormat); err != nil {
			return err
		}
		fmt.Fprintf(info, "wrote %s (%s)\n", outPath, outFormat)
	}
	return nil
}

// parseFollowLine parses one stream line. "src dst v1 v2..." (exactly one
// value per schema edge attribute, whitespace separated) inserts an edge; a
// leading "-" — either its own field ("- src dst v1...") or glued to the
// source ("-src dst v1...") — retracts one live edge matching the endpoints
// and values exactly. Note the retraction syntax claims the leading "-": a
// negative source id can no longer be spelled on a stream line (it was
// always schema-rejected at apply time anyway).
func parseFollowLine(line string, edgeAttrs int) (ins grminer.EdgeInsert, del grminer.EdgeDelete, isDel bool, err error) {
	line = strings.TrimSpace(line)
	if strings.HasPrefix(line, "-") {
		isDel = true
		line = strings.TrimSpace(strings.TrimPrefix(line, "-"))
		if line == "" || strings.HasPrefix(line, "-") {
			return grminer.EdgeInsert{}, grminer.EdgeDelete{}, false, fmt.Errorf("malformed retraction %q", line)
		}
	}
	src, dst, vals, err := parseEdgeFields(line, edgeAttrs)
	if err != nil {
		return grminer.EdgeInsert{}, grminer.EdgeDelete{}, false, err
	}
	if isDel {
		return grminer.EdgeInsert{}, grminer.EdgeDelete{Src: src, Dst: dst, Vals: vals}, true, nil
	}
	return grminer.EdgeInsert{Src: src, Dst: dst, Vals: vals}, grminer.EdgeDelete{}, false, nil
}

// parseEdgeFields parses "src dst v1 v2..." with exactly one value per
// schema edge attribute.
func parseEdgeFields(line string, edgeAttrs int) (src, dst int, vals []grminer.Value, err error) {
	if edgeAttrs < 0 {
		return 0, 0, nil, fmt.Errorf("negative edge attribute count %d", edgeAttrs)
	}
	fields := strings.Fields(line)
	if len(fields) != 2+edgeAttrs {
		return 0, 0, nil, fmt.Errorf("%d fields, want %d (src dst + %d edge values)",
			len(fields), 2+edgeAttrs, edgeAttrs)
	}
	src, err1 := strconv.Atoi(fields[0])
	dst, err2 := strconv.Atoi(fields[1])
	if err1 != nil || err2 != nil {
		return 0, 0, nil, fmt.Errorf("bad endpoints %q %q", fields[0], fields[1])
	}
	for a := 0; a < edgeAttrs; a++ {
		v, err := strconv.Atoi(fields[2+a])
		if err != nil {
			return 0, 0, nil, fmt.Errorf("bad edge value %q: %v", fields[2+a], err)
		}
		// Reject values the uint16 conversion would silently wrap; the
		// schema's domain check then runs when the batch is applied.
		if v < 0 || v > 65535 {
			return 0, 0, nil, fmt.Errorf("edge value %d outside the attribute value range [0, 65535]", v)
		}
		vals = append(vals, grminer.Value(v))
	}
	return src, dst, vals, nil
}

func writeResults(res *grminer.Result, g *grminer.Graph, path, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case "tsv":
		return res.WriteTSV(f, g.Schema())
	case "json":
		return res.WriteJSON(f, g.Schema())
	default:
		return fmt.Errorf("unknown format %q (want tsv or json)", format)
	}
}
