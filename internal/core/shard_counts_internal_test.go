package core

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
	"grminer/internal/store"
)

// rowScanCounts is the reference for WorkerState.Counts: one full scan of
// the shard's live rows per GR, matching every condition row by row and
// filling only the fields the metric reads.
func rowScanCounts(st *store.Store, m metrics.Metric, g gr.GR) metrics.Counts {
	c := metrics.Counts{E: st.NumEdges()}
	eff, hasBeta := g.HomophilyEffect(st.Graph().Schema())
	needHom := m.NeedsHom && hasBeta
	for e := int32(0); int(e) < st.NumRows(); e++ {
		if !st.Alive(e) {
			continue
		}
		if matchOn(st.LVal, e, g.L) && matchOn(st.EVal, e, g.W) {
			c.LW++
			if matchOn(st.RVal, e, g.R) {
				c.LWR++
			}
			if needHom && matchOn(st.RVal, e, eff.R) {
				c.Hom++
			}
		}
		if m.NeedsR && matchOn(st.RVal, e, g.R) {
			c.R++
		}
	}
	return c
}

// matchOn reports whether edge e satisfies every condition of d under the
// given per-edge accessor (LVal, EVal, or RVal).
func matchOn(val func(int32, int) graph.Value, e int32, d gr.Descriptor) bool {
	for _, c := range d {
		if val(e, c.Attr) != c.Val {
			return false
		}
	}
	return true
}

// countsSchema has two homophily attributes (so β ≠ ∅ arises), and domains
// wider than the values the fixture draws, so some descriptor values are
// carried by no row and their posting bitmaps are nil.
func countsSchema(t *testing.T) *graph.Schema {
	t.Helper()
	schema, err := graph.NewSchema(
		[]graph.Attribute{
			{Name: "A", Domain: 4, Homophily: true},
			{Name: "B", Domain: 3, Homophily: true},
			{Name: "C", Domain: 6},
		},
		[]graph.Attribute{{Name: "W", Domain: 3}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

// countsEdge draws a random edge; edge values stay below W's top value.
func countsEdge(r *rand.Rand, nodes int) EdgeInsert {
	return EdgeInsert{Src: r.Intn(nodes), Dst: r.Intn(nodes), Vals: []graph.Value{graph.Value(r.Intn(3))}}
}

// countsWorker builds shard 0 of a 2-shard layout over a random graph,
// seeded (Offer(nil)) so it accepts Ingest batches.
func countsWorker(t *testing.T, seed int64, m metrics.Metric) (*WorkerState, WorkerSpec, *rand.Rand) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	const nodes = 40
	g := graph.MustNew(countsSchema(t), nodes)
	for v := 0; v < nodes; v++ {
		// A and B draw their full domain plus null; C only 0..3 of 6.
		if err := g.SetNodeValues(v, graph.Value(r.Intn(5)), graph.Value(r.Intn(4)), graph.Value(r.Intn(4))); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < 300; e++ {
		ins := countsEdge(r, nodes)
		if _, err := g.AddEdge(ins.Src, ins.Dst, ins.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	opt, so, err := normalizeSharded(g, Options{MinSupp: 6, MinScore: 0.1, K: 10, Metric: m}, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := graph.PartitionEdges(g, so.Shards, so.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	spec := buildWorkerSpec(g, opt, planFromParts(opt, so, parts), parts[0], 0)
	w, err := NewWorkerState(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Offer(nil); err != nil {
		t.Fatal(err)
	}
	return w, spec, r
}

// randomGR draws a valid GR over the schema; each condition is present with
// probability 1/3, so empty L, W and R all occur.
func randomGR(r *rand.Rand, schema *graph.Schema) gr.GR {
	var g gr.GR
	for a, at := range schema.Node {
		if r.Intn(3) == 0 {
			g.L = g.L.With(a, graph.Value(1+r.Intn(at.Domain)))
		}
		if r.Intn(3) == 0 {
			g.R = g.R.With(a, graph.Value(1+r.Intn(at.Domain)))
		}
	}
	for a, at := range schema.Edge {
		if r.Intn(3) == 0 {
			g.W = g.W.With(a, graph.Value(1+r.Intn(at.Domain)))
		}
	}
	return g
}

// countsCoverage records which kernel edge cases a run exercised.
type countsCoverage struct {
	emptyLW, emptyR, nilBitmap, shortBitmap, betaHom, compaction bool
}

// checkCounts compares Counts on a key-sorted request (GRs sharing L∧W
// arrive together, so L∧W reuse is exercised) against the row scan.
func checkCounts(t *testing.T, label string, w *WorkerState, r *rand.Rand, cov *countsCoverage) {
	t.Helper()
	schema := w.g.Schema()
	grs := []gr.GR{
		{}, // L = W = R = ∅
		{R: gr.Descriptor{{Attr: 0, Val: 1}}},
		{L: gr.Descriptor{{Attr: 0, Val: 1}}, R: gr.Descriptor{{Attr: 0, Val: 2}}},
		{L: gr.Descriptor{{Attr: 2, Val: 6}}},                                      // value carried by no row
		{W: gr.Descriptor{{Attr: 0, Val: 3}}, R: gr.Descriptor{{Attr: 1, Val: 1}}}, // likewise
	}
	for i := 0; i < 200; i++ {
		grs = append(grs, randomGR(r, schema))
	}
	sort.Slice(grs, func(i, j int) bool { return grs[i].Key() < grs[j].Key() })
	got, err := w.Counts(grs)
	if err != nil {
		t.Fatalf("%s: Counts: %v", label, err)
	}
	words := (w.st.NumRows() + 63) / 64
	for i, g := range grs {
		want := rowScanCounts(w.st, w.pool.opt.Metric, g)
		if got[i] != want {
			t.Fatalf("%s: %s: bitmap counts %+v, row scan %+v", label, g.Format(schema), got[i], want)
		}
		cov.emptyLW = cov.emptyLW || (len(g.L) == 0 && len(g.W) == 0)
		cov.emptyR = cov.emptyR || len(g.R) == 0
		cov.betaHom = cov.betaHom || (w.pool.opt.Metric.NeedsHom && want.Hom > 0)
		for _, c := range g.L {
			b := w.st.Postings().LBitmap(c.Attr, c.Val)
			cov.nilBitmap = cov.nilBitmap || b == nil
			cov.shortBitmap = cov.shortBitmap || (b != nil && len(b) < words)
		}
	}
}

// TestWorkerCountsMatchRowScan is the round-2 kernel's equivalence property:
// for every metric, bitmap counts equal the row-scan reference on random
// shard stores through inserts, retractions, a tombstone compaction, and
// checkpoint restores (the restored worker keeps ingesting).
func TestWorkerCountsMatchRowScan(t *testing.T) {
	for mi, m := range metrics.All() {
		t.Run(m.Name, func(t *testing.T) {
			w, spec, r := countsWorker(t, int64(100+mi), m)
			var cov countsCoverage
			checkCounts(t, "seed", w, r, &cov)
			for step := 0; step < 6; step++ {
				var b Batch
				for i := 0; i < 10; i++ {
					b.Ins = append(b.Ins, countsEdge(r, spec.NumNodes))
				}
				var live []EdgeDelete
				for e := 0; e < w.g.NumEdges(); e++ {
					if w.g.EdgeAlive(e) {
						live = append(live, EdgeDelete{Src: w.g.Src(e), Dst: w.g.Dst(e),
							Vals: append([]graph.Value(nil), w.g.EdgeValues(e)...)})
					}
				}
				r.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
				n := 5
				if step == 2 {
					n = len(live) / 2 // crosses the store's compaction threshold
				}
				b.Del = live[:n]
				rows := w.st.NumRows()
				if _, err := w.Ingest(b); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				cov.compaction = cov.compaction || w.st.NumRows() < rows+len(b.Ins)
				checkCounts(t, "ingest", w, r, &cov)
				if step%2 == 1 {
					blob, err := w.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					if w, err = NewWorkerStateFromCheckpoint(spec, blob); err != nil {
						t.Fatal(err)
					}
					checkCounts(t, "restored", w, r, &cov)
				}
			}
			if !cov.emptyLW || !cov.emptyR || !cov.nilBitmap || !cov.shortBitmap || !cov.compaction {
				t.Errorf("edge cases not exercised: %+v", cov)
			}
			if m.NeedsHom && !cov.betaHom {
				t.Error("no GR with β ≠ ∅ and a non-zero homophily effect")
			}
		})
	}
}

// TestWorkerCountsRejectsMalformed pins the fail-closed check: a request
// naming an attribute or value outside the shard schema is refused whole,
// before any table is read, and the worker keeps serving valid requests.
func TestWorkerCountsRejectsMalformed(t *testing.T) {
	w, _, _ := countsWorker(t, 7, metrics.NhpMetric)
	ok := gr.GR{L: gr.Descriptor{{Attr: 0, Val: 1}}, R: gr.Descriptor{{Attr: 1, Val: 2}}}
	cases := map[string]gr.GR{
		"lhs attribute out of range": {L: gr.Descriptor{{Attr: 3, Val: 1}}},
		"negative attribute":         {L: gr.Descriptor{{Attr: -1, Val: 1}}},
		"lhs value out of domain":    {L: gr.Descriptor{{Attr: 0, Val: 5}}},
		"null value":                 {R: gr.Descriptor{{Attr: 0, Val: graph.Null}}},
		"unsorted descriptor":        {L: gr.Descriptor{{Attr: 1, Val: 1}, {Attr: 0, Val: 1}}},
		"edge attribute out of range": {
			W: gr.Descriptor{{Attr: 1, Val: 1}},
		},
		"rhs attribute out of range": {R: gr.Descriptor{{Attr: 3, Val: 1}}},
		"rhs value out of domain":    {R: gr.Descriptor{{Attr: 2, Val: 7}}},
	}
	for name, bad := range cases {
		got, err := w.Counts([]gr.GR{ok, bad})
		if err == nil || got != nil {
			t.Errorf("%s: Counts = %v, %v; want a refusal", name, got, err)
		} else if !strings.Contains(err.Error(), "GR 1") {
			t.Errorf("%s: error %q does not name the offending GR", name, err)
		}
	}
	got, err := w.Counts([]gr.GR{ok})
	if err != nil {
		t.Fatalf("valid request after refusals: %v", err)
	}
	if want := rowScanCounts(w.st, w.pool.opt.Metric, ok); got[0] != want {
		t.Fatalf("counts after refusals %+v, want %+v", got[0], want)
	}
}

// TestWorkerOfferRejectsIllShapedBound pins the offer's fail-closed check:
// a bound whose tables do not have one Domain+1 row per schema attribute is
// refused before mining (the empty bound used to panic in prune), and the
// worker keeps serving well-shaped bounds.
func TestWorkerOfferRejectsIllShapedBound(t *testing.T) {
	w, _, _ := countsWorker(t, 5, metrics.NhpMetric)
	schema := w.g.Schema()
	good := func() *OfferBound { return buildOfferBounds(2, []ShardSketch{newShardSketch(schema)})[0] }
	cases := map[string]func(*OfferBound){
		"empty bound":            func(b *OfferBound) { *b = OfferBound{MinSupp: 1} },
		"HL missing a row":       func(b *OfferBound) { b.HL = b.HL[:1] },
		"OR with extra row":      func(b *OfferBound) { b.OR = append(b.OR, []int{0}) },
		"HW row too short":       func(b *OfferBound) { b.HW = [][]int{b.HW[0][:1]} },
		"OW row too long":        func(b *OfferBound) { b.OW = [][]int{append(b.OW[0], 0)} },
		"HR row of another attr": func(b *OfferBound) { b.HR = [][]int{b.HR[0], b.HR[0], b.HR[2]} },
	}
	for name, edit := range cases {
		b := good()
		edit(b)
		if offers, _, err := w.Offer(b); err == nil || offers != nil {
			t.Errorf("%s: Offer = %d offers, %v; want a refusal", name, len(offers), err)
		}
	}
	if _, _, err := w.Offer(good()); err != nil {
		t.Fatalf("well-shaped bound after refusals: %v", err)
	}
}

// TestWorkerCountsAllocsFlat pins the kernel's allocation budget: with its
// scratch warm, a request costs the reply slice alone, however many GRs it
// carries.
func TestWorkerCountsAllocsFlat(t *testing.T) {
	w, _, r := countsWorker(t, 9, metrics.LiftMetric)
	schema := w.g.Schema()
	grs := make([]gr.GR, 400)
	for i := range grs {
		grs[i] = randomGR(r, schema)
	}
	for _, n := range []int{1, 40, 400} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := w.Counts(grs[:n]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("Counts of %d GRs: %v allocs, want 1 (the reply)", n, allocs)
		}
	}
}
