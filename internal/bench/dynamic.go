package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"grminer/internal/core"
	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/store"
)

// DynamicPoint is one measured batch size of the fully dynamic experiment.
type DynamicPoint struct {
	// BatchInserts sizes the insert-only batches; BatchDeletes sizes the
	// retraction half of the interleaved mixed batches (which also carry
	// BatchInserts/4 insertions). Inserted/Deleted report actual volumes.
	BatchInserts int `json:"batch_inserts"`
	BatchDeletes int `json:"batch_deletes"`
	// Batches, Inserted and Deleted describe the measured stream.
	Batches  int `json:"batches"`
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	// PostingSeconds is the total ApplyBatch time of the incremental
	// engine; FullSeconds a fresh batch re-mine of the surviving graph
	// after every batch.
	PostingSeconds float64 `json:"apply_seconds_postings"`
	FullSeconds    float64 `json:"full_remine_seconds"`
	// TopKEvictionsByDeletion counts batches containing deletions after
	// which a previous top-k member left the reference list — the demotion
	// case the engines' decrement paths must get right.
	TopKEvictionsByDeletion int `json:"topk_evictions_by_deletion"`
	// Identical records whether the engine matched the batch re-mine after
	// every single batch.
	Identical bool `json:"identical_results"`
}

// DynamicReport is the machine-readable snapshot written to
// BENCH_dynamic.json: per-batch cost of maintaining the top-k under a fully
// dynamic (insert + delete) stream against full re-mines, with exactness
// checked after every batch.
type DynamicReport struct {
	Dataset   string `json:"dataset"`
	Nodes     int    `json:"nodes"`
	BaseEdges int    `json:"base_edges"`
	// Dims is the GR search-space dimensionality (2 × node attributes, the
	// Figure 4d convention); the postings saving scales with it.
	Dims    int            `json:"dims"`
	MinSupp int            `json:"min_supp"`
	MinNhp  float64        `json:"min_nhp"`
	K       int            `json:"k"`
	Points  []DynamicPoint `json:"points"`
	// The aggregate verdicts CI gates on: every batch of every point
	// matched its full re-mine, and the summed Apply cost stayed strictly
	// below the summed full re-mine cost.
	AllIdentical         bool    `json:"identical_results"`
	TotalPostingSeconds  float64 `json:"apply_seconds_postings_total"`
	TotalFullSeconds     float64 `json:"full_remine_seconds_total"`
	ApplyBelowFullRemine bool    `json:"apply_below_full_remine"`
}

// Dynamic measures fully dynamic top-k maintenance on the Pokec-like
// generator: 90% of the edges seed the engines, then mixed batches stream in
// — fresh insertions from the remaining tail interleaved with retractions of
// random live edges — through the incremental engine, with every batch
// checked against (and timed beside) a fresh re-mine of the surviving
// graph. With cfg.JSONDir set the trajectory is also written to
// BENCH_dynamic.json.
func Dynamic(w io.Writer, cfg Config) error {
	full := cfg.pokec()
	base := full.NumEdges() * 9 / 10
	stream := full.NumEdges() - base
	dims := 2 * len(full.Schema().Node)

	opt := core.Options{MinSupp: cfg.MinSupp, MinScore: cfg.MinNhp, K: cfg.K, DynamicFloor: true}
	rep := DynamicReport{
		Dataset: "pokec-like", Nodes: full.NumNodes(), BaseEdges: base, Dims: dims,
		MinSupp: cfg.MinSupp, MinNhp: cfg.MinNhp, K: cfg.K,
	}

	fmt.Fprintf(w, "== Dynamic: top-k maintenance under edge insertions AND deletions ==  |V|=%d base|E|=%d stream=%d dims=%d minSupp=%d minNhp=%0.0f%% k=%d\n",
		rep.Nodes, base, stream, dims, cfg.MinSupp, 100*cfg.MinNhp, cfg.K)
	fmt.Fprintf(w, "  %-12s %8s %12s %14s %9s %10s %10s\n",
		"batch(+/-)", "batches", "apply/s", "full-remine/s", "speedup", "evictions", "identical")

	for _, batchSize := range []int{4, 16, 64} {
		maxBatches := 8
		if batchSize*maxBatches > stream {
			maxBatches = stream / batchSize
		}
		if maxBatches == 0 {
			continue
		}
		pt, err := measureDynamic(full, base, batchSize, maxBatches, cfg.Seed, opt)
		if err != nil {
			return err
		}
		rep.Points = append(rep.Points, pt)
		fmt.Fprintf(w, "  +%-5d-%-5d %8d %12.4f %14.4f %8.2fx %10d %10v\n",
			pt.BatchInserts, pt.BatchDeletes, pt.Batches,
			pt.PostingSeconds, pt.FullSeconds,
			pt.FullSeconds/pt.PostingSeconds, pt.TopKEvictionsByDeletion, pt.Identical)
	}

	rep.AllIdentical = true
	for _, pt := range rep.Points {
		rep.AllIdentical = rep.AllIdentical && pt.Identical
		rep.TotalPostingSeconds += pt.PostingSeconds
		rep.TotalFullSeconds += pt.FullSeconds
	}
	rep.ApplyBelowFullRemine = rep.TotalPostingSeconds < rep.TotalFullSeconds
	if rep.AllIdentical {
		fmt.Fprintln(w, "  shape: dynamic engine ≡ batch re-mine after every mixed batch ✓")
	} else {
		fmt.Fprintln(w, "  shape: WARNING — a maintained top-k diverged from its batch re-mine")
	}
	if rep.ApplyBelowFullRemine {
		fmt.Fprintf(w, "  shape: Apply strictly below full re-mines (%.4fs < %.4fs) ✓\n",
			rep.TotalPostingSeconds, rep.TotalFullSeconds)
	} else {
		fmt.Fprintln(w, "  shape: WARNING — full re-mines beat incremental Apply")
	}

	if cfg.JSONDir != "" {
		path := filepath.Join(cfg.JSONDir, "BENCH_dynamic.json")
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

// dynamicWorkload precomputes a deterministic interleaved stream: insert-only
// batches (batchSize fresh edges from full's tail) alternate with genuinely
// MIXED batches carrying batchSize/2 retractions of random live edges (by
// endpoint+value, the engine-facing identity) alongside batchSize/4 fresh
// insertions — so every other ApplyBatch exercises pre-batch delete
// resolution coexisting with same-batch inserts. Deletions resolve against
// the pre-batch edge set, so a batch never retracts an edge it also inserts
// (retractions are drawn before the batch's inserts register).
func dynamicWorkload(full *graph.Graph, base, batchSize, batches int, seed int64) ([]core.Batch, error) {
	r := rand.New(rand.NewSource(seed + 42))
	sim, err := edgePrefix(full, base)
	if err != nil {
		return nil, err
	}
	live := make([]int, 0, sim.NumEdges())
	for e := 0; e < sim.NumEdges(); e++ {
		if sim.EdgeAlive(e) {
			live = append(live, e)
		}
	}
	out := make([]core.Batch, 0, batches)
	cut := base
	for b := 0; b < batches; b++ {
		var batch core.Batch
		ins := batchSize
		if b%2 == 1 {
			ins = batchSize / 4
			for i := 0; i < batchSize/2 && len(live) > 0; i++ {
				j := r.Intn(len(live))
				e := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				batch.Del = append(batch.Del, core.EdgeDelete{
					Src: sim.Src(e), Dst: sim.Dst(e),
					Vals: append([]graph.Value(nil), sim.EdgeValues(e)...),
				})
				if err := sim.RemoveEdge(e); err != nil {
					return nil, err
				}
			}
		}
		for i := 0; i < ins && cut < full.NumEdges(); i++ {
			if !full.EdgeAlive(cut) {
				// The source graph is a static snapshot; a tombstone here
				// means the workload would replay a retracted edge.
				return nil, fmt.Errorf("bench: source graph edge %d is tombstoned", cut)
			}
			src, dst := full.Src(cut), full.Dst(cut)
			vals := append([]graph.Value(nil), full.EdgeValues(cut)...)
			batch.Ins = append(batch.Ins, core.EdgeInsert{Src: src, Dst: dst, Vals: vals})
			e, err := sim.AddEdge(src, dst, vals...)
			if err != nil {
				return nil, err
			}
			live = append(live, e)
			cut++
		}
		out = append(out, batch)
	}
	return out, nil
}

// runEnginePhase streams the whole workload through one fresh engine,
// returning total ApplyBatch seconds and the per-batch top-k snapshots.
func runEnginePhase(full *graph.Graph, base int, workload []core.Batch, opt core.Options) (float64, [][]gr.Scored, core.Options, error) {
	g, err := edgePrefix(full, base)
	if err != nil {
		return 0, nil, opt, err
	}
	eng, err := core.NewIncremental(g, opt)
	if err != nil {
		return 0, nil, opt, err
	}
	var total float64
	tops := make([][]gr.Scored, 0, len(workload))
	for _, batch := range workload {
		res, bs, err := eng.ApplyBatch(batch)
		if err != nil {
			return 0, nil, opt, err
		}
		total += bs.Duration.Seconds()
		tops = append(tops, res.TopK)
	}
	return total, tops, eng.Options(), nil
}

// measureDynamic streams the precomputed workload through the incremental
// engine and the full-re-mine reference, timing each and checking equality
// after every batch. The engine runs the stream as its own uninterrupted
// phase (twice, keeping the faster pass) so the measured Apply cost is not
// distorted by the reference's cache and GC traffic.
func measureDynamic(full *graph.Graph, base, batchSize, batches int, seed int64, opt core.Options) (DynamicPoint, error) {
	pt := DynamicPoint{
		BatchInserts: batchSize, BatchDeletes: batchSize / 2,
		Batches: batches, Identical: true,
	}
	workload, err := dynamicWorkload(full, base, batchSize, batches, seed)
	if err != nil {
		return pt, err
	}
	for _, batch := range workload {
		pt.Inserted += len(batch.Ins)
		pt.Deleted += len(batch.Del)
	}

	var postTops [][]gr.Scored
	var refOpt core.Options
	pt.PostingSeconds = math.Inf(1)
	for rep := 0; rep < 2; rep++ {
		secs, tops, effOpt, err := runEnginePhase(full, base, workload, opt)
		if err != nil {
			return pt, err
		}
		if secs < pt.PostingSeconds {
			pt.PostingSeconds = secs
		}
		postTops, refOpt = tops, effOpt
	}

	// Reference phase: apply the same ops to a twin graph and re-mine from
	// scratch after every batch (fresh store build included — deletions
	// invalidate the append-only store reuse the insert-only experiment
	// leaned on).
	refG, err := edgePrefix(full, base)
	if err != nil {
		return pt, err
	}
	prevRef := []gr.Scored(nil)
	for i, batch := range workload {
		for _, e := range batch.Ins {
			if _, err := refG.AddEdge(e.Src, e.Dst, e.Vals...); err != nil {
				return pt, err
			}
		}
		if err := retractAll(refG, batch.Del); err != nil {
			return pt, err
		}
		ref, err := core.MineStore(store.Build(refG), refOpt)
		if err != nil {
			return pt, err
		}
		pt.FullSeconds += ref.Stats.Duration.Seconds()
		pt.Identical = pt.Identical && sameTop(postTops[i], ref.TopK)
		if len(batch.Del) > 0 && prevRef != nil && evicted(prevRef, ref.TopK) {
			pt.TopKEvictionsByDeletion++
		}
		prevRef = ref.TopK
	}
	return pt, nil
}

// retractAll removes one live edge per EdgeDelete from g (the reference-side
// mirror of the engines' batch semantics).
func retractAll(g *graph.Graph, dels []core.EdgeDelete) error {
	for _, d := range dels {
		found := false
		for e := 0; e < g.NumEdges(); e++ {
			if !g.EdgeAlive(e) || g.Src(e) != d.Src || g.Dst(e) != d.Dst {
				continue
			}
			match := true
			for a, v := range d.Vals {
				if g.EdgeValue(e, a) != v {
					match = false
					break
				}
			}
			if match {
				if err := g.RemoveEdge(e); err != nil {
					return err
				}
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("bench: reference retraction %d->%d matched no live edge", d.Src, d.Dst)
		}
	}
	return nil
}

// evicted reports whether some member of prev is absent from cur.
func evicted(prev, cur []gr.Scored) bool {
	have := make(map[string]bool, len(cur))
	for _, s := range cur {
		have[s.GR.Key()] = true
	}
	for _, s := range prev {
		if !have[s.GR.Key()] {
			return true
		}
	}
	return false
}
