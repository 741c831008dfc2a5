package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"grminer/internal/datagen"
	"grminer/internal/graph"
	"grminer/internal/metrics"
)

// fanOutGraph is the fan-out tests' input: a Pokec-like graph wide enough
// that every root block yields many first-level subtrees.
func fanOutGraph() *graph.Graph {
	cfg := datagen.DefaultPokecConfig()
	cfg.Nodes = 400
	cfg.AvgOutDegree = 6
	cfg.Seed = 3
	return datagen.Pokec(cfg)
}

// fanOutBatch draws a mixed batch against g's live edges: ins random
// insertions and del distinct retractions.
func fanOutBatch(r *rand.Rand, g *graph.Graph, ins, del int) Batch {
	var b Batch
	schema := g.Schema()
	for i := 0; i < ins; i++ {
		vals := make([]graph.Value, len(schema.Edge))
		for a := range vals {
			vals[a] = graph.Value(r.Intn(schema.Edge[a].Domain + 1))
		}
		b.Ins = append(b.Ins, EdgeInsert{Src: r.Intn(g.NumNodes()), Dst: r.Intn(g.NumNodes()), Vals: vals})
	}
	var live []int
	for e := 0; e < g.NumEdges(); e++ {
		if g.EdgeAlive(e) {
			live = append(live, e)
		}
	}
	r.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, e := range live[:min(del, len(live))] {
		b.Del = append(b.Del, EdgeDelete{Src: g.Src(e), Dst: g.Dst(e), Vals: append([]graph.Value(nil), g.EdgeValues(e)...)})
	}
	return b
}

// sameResult fails unless a and b hold the same top-k, counters and edge
// count; only the wall-clock time may differ.
func sameResult(t *testing.T, what string, a, b *Result) {
	t.Helper()
	if Untimed(a.Stats) != Untimed(b.Stats) || a.TotalEdges != b.TotalEdges || !reflect.DeepEqual(a.TopK, b.TopK) {
		t.Fatalf("%s: results differ:\n width 1 %+v\n width 4 %+v", what, a.Stats, b.Stats)
	}
}

// TestFanOutWidthInvariant pins the fan-out's contract: the capture walks'
// output does not depend on how many workers run them. A single-store
// engine (the scoped re-mine under nhp, full re-mines every batch under
// lift, whose |E(r)| memo interns into the workers' private dictionaries)
// and a shard worker run the same seed and the same mixed batches at
// widths 1 and 4; after every step the pools must list the same entries in
// the same order, the store dictionaries must hold the same ids, and the
// results, work counters, ingest replies and checkpoint bytes must match.
func TestFanOutWidthInvariant(t *testing.T) {
	batches := 20
	if testing.Short() {
		batches = 8
	}
	for _, tc := range []struct {
		name    string
		metric  metrics.Metric
		batches int
	}{
		{"nhp-scoped", metrics.NhpMetric, batches},
		{"lift-full", metrics.LiftMetric, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := fanOutGraph()
			opt := Options{MinSupp: g.NumEdges() / 100, MinScore: 0.5, K: 20, DynamicFloor: true, Metric: tc.metric}
			var incs [2]*Incremental
			for i, width := range []int{1, 4} {
				inc, err := newIncremental(fanOutGraph(), opt, width)
				if err != nil {
					t.Fatal(err)
				}
				incs[i] = inc
			}
			if n := len(incs[1].fan.ws); n != 4 {
				t.Fatalf("the seed walk ran on %d workers, want 4", n)
			}
			sameResult(t, "seed", incs[0].Result(), incs[1].Result())
			sameEngines(t, "seed", incs[0], incs[1])
			r := rand.New(rand.NewSource(9))
			for step := 0; step < tc.batches; step++ {
				b := fanOutBatch(r, incs[0].g, 24, 8)
				res1, bs1, err1 := incs[0].ApplyBatch(b)
				res4, bs4, err4 := incs[1].ApplyBatch(b)
				if err1 != nil || err4 != nil {
					t.Fatalf("batch %d: %v / %v", step, err1, err4)
				}
				bs1.Duration, bs4.Duration = 0, 0
				if !reflect.DeepEqual(bs1, bs4) {
					t.Fatalf("batch %d: IncStats differ:\n width 1 %+v\n width 4 %+v", step, bs1, bs4)
				}
				sameResult(t, "batch", res1, res4)
				sameEngines(t, "batch", incs[0], incs[1])
			}
		})
	}

	t.Run("shard-worker", func(t *testing.T) {
		g := fanOutGraph()
		opt, so, err := normalizeSharded(g, Options{MinSupp: g.NumEdges() / 100, MinScore: 0.5, K: 20}, ShardOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		parts, err := graph.PartitionEdges(g, so.Shards, so.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		spec := buildWorkerSpec(g, opt, planFromParts(opt, so, parts), parts[0], 0)
		var ws [2]*WorkerState
		for i, width := range []int{1, 4} {
			if ws[i], err = NewWorkerState(spec); err != nil {
				t.Fatal(err)
			}
			ws[i].fan.width = width
		}
		offer := func(what string) {
			t.Helper()
			o1, s1, err1 := ws[0].Offer(nil)
			o4, s4, err4 := ws[1].Offer(nil)
			if err1 != nil || err4 != nil {
				t.Fatalf("%s: %v / %v", what, err1, err4)
			}
			if len(o1) == 0 || !reflect.DeepEqual(o1, o4) || Untimed(s1) != Untimed(s4) {
				t.Fatalf("%s: offers differ (%d vs %d candidates, stats %+v vs %+v)", what, len(o1), len(o4), s1, s4)
			}
		}
		offer("seed offer")
		if n := len(ws[1].fan.ws); n != 4 {
			t.Fatalf("the seed offer ran on %d workers, want 4", n)
		}
		r := rand.New(rand.NewSource(5))
		entered := 0
		for step := 0; step < batches; step++ {
			b := fanOutBatch(r, ws[0].g, 24, 8)
			rep1, err1 := ws[0].Ingest(b)
			rep4, err4 := ws[1].Ingest(b)
			if err1 != nil || err4 != nil {
				t.Fatalf("batch %d: %v / %v", step, err1, err4)
			}
			rep1.Stats, rep4.Stats = Untimed(rep1.Stats), Untimed(rep4.Stats)
			if !reflect.DeepEqual(rep1, rep4) {
				t.Fatalf("batch %d: ingest replies differ:\n width 1 %+v\n width 4 %+v", step, rep1, rep4)
			}
			entered += len(rep1.Entered)
			c1, err1 := ws[0].Checkpoint()
			c4, err4 := ws[1].Checkpoint()
			if err1 != nil || err4 != nil || !bytes.Equal(c1, c4) {
				t.Fatalf("batch %d: checkpoints differ (%d vs %d bytes; %v / %v)", step, len(c1), len(c4), err1, err4)
			}
		}
		if entered == 0 {
			t.Fatal("no batch brought a pool entrant; the replay went unexercised")
		}
		offer("re-seed offer")
	})
}

// sameEngines fails unless a and b hold the same pool, entry for entry in
// the same order, and the same store dictionary.
func sameEngines(t *testing.T, what string, a, b *Incremental) {
	t.Helper()
	if a.pool.len() == 0 {
		t.Fatalf("%s: empty pool; the comparison is vacuous", what)
	}
	if !reflect.DeepEqual(a.pool.ids, b.pool.ids) || !reflect.DeepEqual(a.pool.entries, b.pool.entries) {
		t.Fatalf("%s: pools differ (%d vs %d entries)", what, a.pool.len(), b.pool.len())
	}
	if !reflect.DeepEqual(a.st.Dict().State(), b.st.Dict().State()) {
		t.Fatalf("%s: store dictionaries differ", what)
	}
}

// TestCaptureWalkPhases: a capture walk reports its phases. A scoped batch
// through Incremental.ApplyBatch and through a shard worker's Ingest, at
// widths 1 and 2, must report a positive WalkTime, a WalkBusy in
// (0, width × WalkTime] and a PlanTime + WalkTime within the call's wall
// time.
func TestCaptureWalkPhases(t *testing.T) {
	check := func(what string, width int, s Stats, wall time.Duration) {
		t.Helper()
		if s.WalkTime <= 0 {
			t.Errorf("%s at width %d: WalkTime %v", what, width, s.WalkTime)
		}
		if s.WalkBusy <= 0 || s.WalkBusy > time.Duration(width)*s.WalkTime {
			t.Errorf("%s at width %d: WalkBusy %v outside (0, %d × WalkTime %v]", what, width, s.WalkBusy, width, s.WalkTime)
		}
		if s.PlanTime+s.WalkTime > wall {
			t.Errorf("%s at width %d: PlanTime %v + WalkTime %v exceed the wall time %v", what, width, s.PlanTime, s.WalkTime, wall)
		}
	}
	g := fanOutGraph()
	opt := Options{MinSupp: g.NumEdges() / 100, MinScore: 0.5, K: 20, DynamicFloor: true, Metric: metrics.NhpMetric}
	so := ShardOptions{Shards: 2}
	sopt, so, err := normalizeSharded(g, opt, so)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := graph.PartitionEdges(g, so.Shards, so.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	spec := buildWorkerSpec(g, sopt, planFromParts(sopt, so, parts), parts[0], 0)
	for _, width := range []int{1, 2} {
		inc, err := newIncremental(fanOutGraph(), opt, width)
		if err != nil {
			t.Fatal(err)
		}
		res, bs, err := inc.ApplyBatch(fanOutBatch(rand.New(rand.NewSource(4)), inc.g, 24, 8))
		if err != nil {
			t.Fatal(err)
		}
		if bs.FullRemines != 0 || bs.SubtreesRemined == 0 {
			t.Fatalf("width %d: the batch ran no scoped re-mine (%+v)", width, bs)
		}
		check("ApplyBatch", width, res.Stats, res.Stats.Duration)

		w, err := NewWorkerState(spec)
		if err != nil {
			t.Fatal(err)
		}
		w.fan.width = width
		if _, _, err := w.Offer(nil); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		rep, err := w.Ingest(fanOutBatch(rand.New(rand.NewSource(4)), w.g, 24, 0))
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if rep.SubtreesRemined == 0 {
			t.Fatalf("width %d: the worker's ingest re-mined no subtree", width)
		}
		check("Ingest", width, rep.Stats, wall)
	}
}
