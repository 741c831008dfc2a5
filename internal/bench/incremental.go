package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"grminer/internal/core"
	"grminer/internal/graph"
	"grminer/internal/store"
	"grminer/internal/topk"
)

// IncrementalPoint is one measured batch size of the incremental experiment.
type IncrementalPoint struct {
	// BatchSize is the number of edges per ingested batch.
	BatchSize int `json:"batch_size"`
	// Batches and Edges describe the measured stream.
	Batches int `json:"batches"`
	Edges   int `json:"edges"`
	// IncrementalSeconds is the total Apply time across the stream;
	// FullSeconds is the total cost of the baseline (a full batch re-mine
	// after every batch, the pre-incremental serving strategy).
	IncrementalSeconds float64 `json:"incremental_seconds"`
	FullSeconds        float64 `json:"full_remine_seconds"`
	// PerEdgeMicrosIncremental / PerEdgeMicrosFull are the amortized
	// per-inserted-edge costs.
	PerEdgeMicrosIncremental float64 `json:"per_edge_us_incremental"`
	PerEdgeMicrosFull        float64 `json:"per_edge_us_full"`
	// Speedup is FullSeconds / IncrementalSeconds.
	Speedup float64 `json:"speedup"`
	// SubtreesRemined / SubtreesTotal report the scoped re-mine's
	// selectivity summed over the stream.
	SubtreesRemined int `json:"subtrees_remined"`
	SubtreesTotal   int `json:"subtrees_total"`
	// Identical records whether the maintained top-k matched the batch
	// re-mine after every single batch.
	Identical bool `json:"identical_results"`
}

// IncrementalReport is the machine-readable snapshot written to
// BENCH_incremental.json: amortized per-edge ingestion cost of the
// incremental engine versus a full re-mine per batch, across batch sizes.
type IncrementalReport struct {
	Dataset   string             `json:"dataset"`
	Nodes     int                `json:"nodes"`
	BaseEdges int                `json:"base_edges"`
	MinSupp   int                `json:"min_supp"`
	MinNhp    float64            `json:"min_nhp"`
	K         int                `json:"k"`
	Points    []IncrementalPoint `json:"points"`
}

// Incremental measures maintaining the top-k under edge insertions on the
// Pokec-like generator: 90% of the edges seed the engine, the rest stream
// in at several batch sizes, and every batch is checked against (and timed
// against) a fresh batch mine of the grown graph. With cfg.JSONDir set the
// trajectory is also written to BENCH_incremental.json.
func Incremental(w io.Writer, cfg Config) error {
	full := cfg.pokec()
	// Shuffle edge order so the streamed tail is not biased toward the
	// generator's last-emitted sources.
	perm := rand.New(rand.NewSource(cfg.Seed)).Perm(full.NumEdges())
	shuffled := graph.MustNew(full.Schema(), full.NumNodes())
	for v := 0; v < full.NumNodes(); v++ {
		if err := shuffled.SetNodeValues(v, full.NodeValues(v)...); err != nil {
			return err
		}
	}
	for _, e := range perm {
		if _, err := shuffled.AddEdge(full.Src(e), full.Dst(e), full.EdgeValues(e)...); err != nil {
			return err
		}
	}
	full = shuffled
	base := full.NumEdges() * 9 / 10
	stream := full.NumEdges() - base

	opt := core.Options{MinSupp: cfg.MinSupp, MinScore: cfg.MinNhp, K: cfg.K, DynamicFloor: true}
	rep := IncrementalReport{
		Dataset: "pokec-like", Nodes: full.NumNodes(), BaseEdges: base,
		MinSupp: cfg.MinSupp, MinNhp: cfg.MinNhp, K: cfg.K,
	}

	fmt.Fprintf(w, "== Incremental: top-k maintenance under edge insertions ==  |V|=%d base|E|=%d stream=%d minSupp=%d minNhp=%0.0f%% k=%d\n",
		rep.Nodes, base, stream, cfg.MinSupp, 100*cfg.MinNhp, cfg.K)
	fmt.Fprintf(w, "  %-10s %8s %14s %14s %12s %12s %9s %10s\n",
		"batch", "batches", "incremental/s", "full-remine/s", "us/edge inc", "us/edge full", "speedup", "identical")

	for _, batchSize := range []int{16, 64, 256, 1024} {
		maxBatches := 8
		if batchSize*maxBatches > stream {
			maxBatches = stream / batchSize
		}
		if maxBatches == 0 {
			continue
		}
		pt, err := measureIncremental(full, base, batchSize, maxBatches, opt)
		if err != nil {
			return err
		}
		rep.Points = append(rep.Points, pt)
		fmt.Fprintf(w, "  %-10d %8d %14.4f %14.4f %12.2f %12.2f %8.2fx %10v\n",
			pt.BatchSize, pt.Batches, pt.IncrementalSeconds, pt.FullSeconds,
			pt.PerEdgeMicrosIncremental, pt.PerEdgeMicrosFull, pt.Speedup, pt.Identical)
	}

	allIdentical := true
	for _, pt := range rep.Points {
		allIdentical = allIdentical && pt.Identical
	}
	if allIdentical {
		fmt.Fprintln(w, "  shape: incremental ≡ batch re-mine after every batch ✓")
	} else {
		fmt.Fprintln(w, "  shape: WARNING — a maintained top-k diverged from its batch re-mine")
	}

	if cfg.JSONDir != "" {
		path := filepath.Join(cfg.JSONDir, "BENCH_incremental.json")
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

// edgePrefix returns an independent copy of full holding its first n edges.
func edgePrefix(full *graph.Graph, n int) (*graph.Graph, error) {
	g := graph.MustNew(full.Schema(), full.NumNodes())
	for v := 0; v < full.NumNodes(); v++ {
		if err := g.SetNodeValues(v, full.NodeValues(v)...); err != nil {
			return nil, err
		}
	}
	for e := 0; e < n; e++ {
		if _, err := g.AddEdge(full.Src(e), full.Dst(e), full.EdgeValues(e)...); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// measureIncremental streams `batches` batches of `batchSize` edges into an
// engine seeded with the first `base` edges of full, timing each Apply
// against a fresh batch mine of the same grown graph.
func measureIncremental(full *graph.Graph, base, batchSize, batches int, opt core.Options) (IncrementalPoint, error) {
	pt := IncrementalPoint{BatchSize: batchSize, Batches: batches, Identical: true}

	// The engine owns its graph; rebuild the base prefix for this point.
	g, err := edgePrefix(full, base)
	if err != nil {
		return pt, err
	}
	inc, err := core.NewIncremental(g, opt)
	if err != nil {
		return pt, err
	}

	// The full-re-mine baseline grows its own store via the append path
	// (graph loading is not what is being compared — mining is).
	refG, err := edgePrefix(full, base)
	if err != nil {
		return pt, err
	}
	refStore := store.Build(refG)

	cut := base
	for b := 0; b < batches; b++ {
		batch := make([]core.EdgeInsert, 0, batchSize)
		for e := cut; e < cut+batchSize; e++ {
			batch = append(batch, core.EdgeInsert{
				Src: full.Src(e), Dst: full.Dst(e),
				Vals: append([]graph.Value(nil), full.EdgeValues(e)...),
			})
		}
		res, bs, err := inc.ApplyBatch(core.Batch{Ins: batch})
		if err != nil {
			return pt, err
		}
		pt.IncrementalSeconds += bs.Duration.Seconds()
		pt.SubtreesRemined += bs.SubtreesRemined
		pt.SubtreesTotal += bs.SubtreesTotal
		pt.Edges += bs.Edges

		for _, e := range batch {
			if _, err := refG.AddEdge(e.Src, e.Dst, e.Vals...); err != nil {
				return pt, err
			}
		}
		refStore.Append()
		ref, err := core.MineStore(refStore, inc.Options())
		if err != nil {
			return pt, err
		}
		pt.FullSeconds += ref.Stats.Duration.Seconds()
		pt.Identical = pt.Identical && sameTop(res.TopK, ref.TopK) &&
			topk.ChangedFrom(ref.TopK, res.TopK) == 0
		cut += batchSize
	}
	if pt.Edges > 0 {
		pt.PerEdgeMicrosIncremental = 1e6 * pt.IncrementalSeconds / float64(pt.Edges)
		pt.PerEdgeMicrosFull = 1e6 * pt.FullSeconds / float64(pt.Edges)
	}
	if pt.IncrementalSeconds > 0 && pt.FullSeconds > 0 {
		pt.Speedup = pt.FullSeconds / pt.IncrementalSeconds
	}
	return pt, nil
}
