package core

import (
	"testing"

	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
	"grminer/internal/store"
)

// Witness fixtures: sources carry node attributes A and B, targets carry C
// (the other attributes are null, so LHS descriptors only ever constrain A
// and B and RHS descriptors only C — except wDB1, which also carries B=1),
// and edges carry E. No attribute is a homophily attribute, so nhp equals
// conf and the scores below are plain LWR / LW ratios.
const (
	wS11 = iota // A=1 B=1
	wS12        // A=1 B=2
	wS21        // A=2 B=1
	wS22        // A=2 B=2
	wS1x        // A=1 B=null
	wSx1        // A=null B=1
	wS2x        // A=2 B=null
	wSx2        // A=null B=2
	wD1         // C=1
	wD2         // C=2
	wDB1        // B=1 C=1
	wNodes
)

// edgeRun is n parallel src -> dst edges with edge value e.
type edgeRun struct {
	src, dst, n int
	e           graph.Value
}

func witnessGraph(t *testing.T, runs []edgeRun) *graph.Graph {
	t.Helper()
	schema, err := graph.NewSchema(
		[]graph.Attribute{{Name: "A", Domain: 2}, {Name: "B", Domain: 2}, {Name: "C", Domain: 2}},
		[]graph.Attribute{{Name: "E", Domain: 2}},
	)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.MustNew(schema, wNodes)
	vals := [wNodes][3]graph.Value{
		wS11: {1, 1, 0}, wS12: {1, 2, 0}, wS21: {2, 1, 0}, wS22: {2, 2, 0},
		wS1x: {1, 0, 0}, wSx1: {0, 1, 0}, wS2x: {2, 0, 0}, wSx2: {0, 2, 0},
		wD1: {0, 0, 1}, wD2: {0, 0, 2}, wDB1: {0, 1, 1},
	}
	for v, row := range vals {
		if err := g.SetNodeValues(v, row[:]...); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range runs {
		for i := 0; i < r.n; i++ {
			if _, err := g.AddEdge(r.src, r.dst, r.e); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

func sameTopK(t *testing.T, label string, got, want []gr.Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].GR.Key() != want[i].GR.Key() || got[i].Supp != want[i].Supp || got[i].Score != want[i].Score {
			t.Fatalf("%s: rank %d: got %s supp=%d score=%v, want %s supp=%d score=%v", label, i,
				got[i].GR.Key(), got[i].Supp, got[i].Score, want[i].GR.Key(), want[i].Supp, want[i].Score)
		}
	}
}

func checkAgainstMine(t *testing.T, label string, g *graph.Graph, inc *Incremental) {
	t.Helper()
	ref, err := Mine(g, inc.Options())
	if err != nil {
		t.Fatal(err)
	}
	sameTopK(t, label, inc.Result().TopK, ref.TopK)
}

// Descriptors of the fixtures below.
var (
	dA1   = gr.Descriptor(nil).With(0, 1)
	dA2B2 = gr.Descriptor(nil).With(0, 2).With(1, 2)
	dA1B1 = dA1.With(1, 1)
	dE2   = gr.Descriptor(nil).With(0, 2)
	dC1   = gr.Descriptor(nil).With(2, 1)
	dB1C1 = dC1.With(1, 1)
)

// TestIncrementalWitnessSkipsCrossDescriptor: one inserted edge carries
// A=1 with E=1, another A=2 with E=2. Their per-attribute union marks both
// A=1 and E=2, but no single edge carries A=1 ∧ E=2, so no entrant can hang
// below that descriptor and the witness walk must not enter it — although
// (A=1) -[E=2]-> (C=1) is a condition-(1) candidate there that any walk
// entering the node would capture.
func TestIncrementalWitnessSkipsCrossDescriptor(t *testing.T) {
	base := []edgeRun{
		{wS11, wD1, 4, 2}, // (A:1) -[E:2]-> (C:1): 4/4
		{wS11, wD2, 2, 1},
		{wS21, wD2, 3, 1},
	}
	batch := []EdgeInsert{
		{Src: wS11, Dst: wD2, Vals: []graph.Value{1}},
		{Src: wS21, Dst: wD1, Vals: []graph.Value{2}},
	}
	opt, err := Options{MinSupp: 2, MinScore: 0.5, K: 10, DynamicFloor: true}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	cross := gr.GR{L: dA1, W: dE2, R: dC1}
	under := func(g gr.GR) bool {
		return cross.L.SubsetOf(g.L) && cross.W.SubsetOf(g.W)
	}

	g := witnessGraph(t, base)
	st := store.Build(g)
	st.EnablePostings()
	for _, e := range batch {
		if _, err := g.AddEdge(e.Src, e.Dst, e.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	newIDs := st.Append()

	// A full capture walk of the grown store finds the cross candidate.
	full := newMinerScr(st, captureOptions(opt), nil)
	found := false
	full.capture = func(g gr.GR, _ metrics.Counts, _ float64) {
		found = found || g.Key() == cross.Key()
	}
	walkAll(full)
	if !found {
		t.Fatalf("fixture broken: %s is not a condition-(1) candidate", cross.Key())
	}

	if !opt.Metric.DeltaSafe || !opt.Metric.DeleteSafe {
		t.Fatal("fixture broken: the scoped re-mine needs a DeltaSafe, DeleteSafe metric")
	}
	var wit witnesses
	collectWitnessesInto(&wit, st, newIDs, nil)
	var stats Stats
	captured := 0
	fan := newFanOut(st, captureOptions(opt), privateScratch(st), 2)
	remined, _ := remineAffectedSubtrees(fan, nil, &wit, func(g gr.GR, _ metrics.Counts, _ float64) {
		captured++
		if under(g) {
			t.Errorf("scoped walk entered A=1 ∧ E=2, which no batch edge carries: captured %s", g.Key())
		}
	}, nil, &stats)
	if remined == 0 || captured == 0 {
		t.Fatalf("scoped walk did no work: %d subtrees, %d captures", remined, captured)
	}

	inc, err := NewIncremental(witnessGraph(t, base), opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := inc.ApplyBatch(Batch{Ins: batch}); err != nil {
		t.Fatal(err)
	}
	checkAgainstMine(t, "cross", inc.g, inc)
}

// TestDeletionWitnessRaisesDeepGR: retracting one (A:1,B:1) -> (C:2) edge
// shrinks the LW denominator of (A:1, B:1) -> (B:1, C:1) from 5 to 4,
// raising it from 0.6 past minScore 0.7. Its only witness is that deleted
// edge, at LHS depth 2, and the edge carries neither B=1 nor C=1 on its
// target: the R walk below the node must stay unfiltered, and the deleted
// edge must stay a witness through the first R extension for the entrant
// at R depth 2 to be found.
func TestDeletionWitnessRaisesDeepGR(t *testing.T) {
	base := []edgeRun{
		{wS11, wDB1, 3, 1},
		{wS11, wD2, 2, 1},
		{wS12, wD2, 3, 1},
		{wS21, wD2, 3, 1},
	}
	target := gr.GR{L: dA1B1, R: dB1C1}
	g := witnessGraph(t, base)
	inc, err := NewIncremental(g, Options{MinSupp: 2, MinScore: 0.7, K: 10, DynamicFloor: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := inc.Explain(target); ok {
		t.Fatalf("fixture broken: %s already tracked", target.Key())
	}
	_, bs, err := inc.ApplyBatch(Batch{Del: []EdgeDelete{{Src: wS11, Dst: wD2, Vals: []graph.Value{1}}}})
	if err != nil {
		t.Fatal(err)
	}
	if bs.FullRemines != 0 || bs.SubtreesRemined == 0 {
		t.Fatalf("batch was not a scoped re-mine: %+v", bs)
	}
	if c, ok := inc.Explain(target); !ok || c.LWR != 3 || c.LW != 4 {
		t.Fatalf("deletion entrant %s not captured: %+v, %v", target.Key(), c, ok)
	}
	if !topKHasGR(inc.Result().TopK, target) {
		t.Fatalf("%s missing from the top-k", target.Key())
	}
	checkAgainstMine(t, "deep-deletion", g, inc)
}

func topKHasGR(top []gr.Scored, g gr.GR) bool {
	for _, s := range top {
		if s.GR.Key() == g.Key() {
			return true
		}
	}
	return false
}

// TestDeletionEntrantOvertakesLeader: with K 1 the seed's top-1 is
// (A:2,B:2) -> (C:1) at 0.9, while (A:1,B:1) -> (C:1) sits at 3/7, below
// minScore and so untracked. Retracting four (A:1,B:1) -> (C:2) edges raises
// it to 1.0 through deletion witnesses at LHS depth 2; the scoped walk must
// capture it and rank it above the leader with no full re-mine.
// Re-inserting the edges drops it back below minScore, and the leader
// returns.
func TestDeletionEntrantOvertakesLeader(t *testing.T) {
	base := []edgeRun{
		{wS11, wD1, 3, 1}, {wS11, wD2, 4, 1}, // target: 3/7
		{wS22, wD1, 9, 1}, {wS22, wD2, 1, 1}, // (A:2,B:2) -> (C:1): 9/10
		// Dilute every generalisation of both below minScore.
		{wS1x, wD2, 10, 1}, {wSx1, wD2, 10, 1}, {wS2x, wD2, 10, 1}, {wSx2, wD2, 10, 1},
	}
	target := gr.GR{L: dA1B1, R: dC1}
	best := gr.GR{L: dA2B2, R: dC1}
	g := witnessGraph(t, base)
	inc, err := NewIncremental(g, Options{MinSupp: 2, MinScore: 0.5, K: 1, DynamicFloor: true})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstMine(t, "seed", g, inc)
	if !topKHasGR(inc.Result().TopK, best) {
		t.Fatalf("fixture broken: seed top-1 is %v", inc.Result().TopK)
	}
	if _, ok := inc.Explain(target); ok {
		t.Fatalf("fixture broken: %s already tracked", target.Key())
	}

	var dels []EdgeDelete
	var ins []EdgeInsert
	for i := 0; i < 4; i++ {
		dels = append(dels, EdgeDelete{Src: wS11, Dst: wD2, Vals: []graph.Value{1}})
		ins = append(ins, EdgeInsert{Src: wS11, Dst: wD2, Vals: []graph.Value{1}})
	}
	res, bs, err := inc.ApplyBatch(Batch{Del: dels})
	if err != nil {
		t.Fatal(err)
	}
	if bs.FullRemines != 0 || bs.SubtreesRemined == 0 {
		t.Fatalf("raise batch was not a scoped re-mine: %+v", bs)
	}
	if !topKHasGR(res.TopK, target) {
		t.Fatalf("captured %s is not top-1: %v", target.Key(), res.TopK)
	}
	checkAgainstMine(t, "raise", g, inc)

	_, bs, err = inc.ApplyBatch(Batch{Ins: ins})
	if err != nil {
		t.Fatal(err)
	}
	if bs.FullRemines != 0 {
		t.Fatalf("fall batch fell back to a full re-mine: %+v", bs)
	}
	checkAgainstMine(t, "fall", g, inc)
	if !topKHasGR(inc.Result().TopK, best) {
		t.Fatalf("fall batch did not restore %s: %v", best.Key(), inc.Result().TopK)
	}
}
