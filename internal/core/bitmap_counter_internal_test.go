package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
	"grminer/internal/store"
)

// generalityGraph draws a random graph over countsSchema (two homophily
// attributes, so β ≠ ∅ arises); with removed set, a fifth of its edges are
// then removed, so a store built over it covers only the live ones.
func generalityGraph(t *testing.T, seed int64, removed bool) *graph.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	const nodes = 30
	g := graph.MustNew(countsSchema(t), nodes)
	for v := 0; v < nodes; v++ {
		if err := g.SetNodeValues(v, graph.Value(r.Intn(5)), graph.Value(r.Intn(4)), graph.Value(r.Intn(4))); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < 240; e++ {
		ins := countsEdge(r, nodes)
		if _, err := g.AddEdge(ins.Src, ins.Dst, ins.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	if removed {
		for e := 0; e < g.NumEdges(); e += 5 {
			if !g.EdgeAlive(e) {
				continue
			}
			if err := g.RemoveEdge(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// generalisations returns every proper subset generalisation of g's L ∪ W
// (same RHS) — the set hasQualifyingGeneralization probes for g.
func generalisations(g gr.GR) []gr.GR {
	n := len(g.L) + len(g.W)
	var out []gr.GR
	for mask := 0; mask < (1<<n)-1; mask++ {
		var l, w gr.Descriptor
		for i, c := range g.L {
			if mask&(1<<i) != 0 {
				l = l.With(c.Attr, c.Val)
			}
		}
		for i, c := range g.W {
			if mask&(1<<(len(g.L)+i)) != 0 {
				w = w.With(c.Attr, c.Val)
			}
		}
		out = append(out, gr.GR{L: l, W: w, R: g.R})
	}
	return out
}

// sameScore compares two scores exactly, treating NaN as equal to NaN.
func sameScore(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// TestGeneralityCountsMatchEval is the ExactGenerality kernel's equivalence
// property. For every metric, with IncludeTrivial on and off, and on a
// graph with and without removed edges (some removed before the store is
// built, some after, as store tombstones), it collects every GR meeting the
// support threshold (a superset of the candidates an ExactGenerality mine
// checks) and then:
//
//   - for each of their generalisations, the kernel's counts equal
//     metrics.Eval's full graph scan on the fields the metric reads, and
//     so do the score and the qualifying verdict;
//   - for each candidate, hasQualifyingGeneralization's verdict (through
//     its memo) equals the verdict recomputed from Eval.
//
// Coverage: the L = W = ∅ generalisation is probed for every candidate, and
// for nhp some probed generalisation has β ≠ ∅ and a non-zero homophily
// effect.
func TestGeneralityCountsMatchEval(t *testing.T) {
	for _, removed := range []bool{false, true} {
		g := generalityGraph(t, 41, removed)
		st := store.Build(g)
		if removed {
			// Tombstone every 9th row: too few to trigger a compaction.
			var rows []int32
			for row := int32(0); int(row) < st.NumRows(); row += 9 {
				if !st.Alive(row) {
					continue
				}
				rows = append(rows, row)
				if err := g.RemoveEdge(int(st.EdgeID(row))); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.RemoveEdges(rows); err != nil {
				t.Fatal(err)
			}
			if st.NumRows() == st.NumEdges() || st.NumEdges() != g.NumLiveEdges() {
				t.Fatalf("want a tombstoned store over the live graph: %d rows, %d live, graph %d",
					st.NumRows(), st.NumEdges(), g.NumLiveEdges())
			}
		}
		for _, m := range metrics.All() {
			for _, trivial := range []bool{false, true} {
				t.Run(fmt.Sprintf("removed=%v/%s/trivial=%v", removed, m.Name, trivial), func(t *testing.T) {
					checkGeneralityCounts(t, g, st, m, trivial)
				})
			}
		}
	}
}

func checkGeneralityCounts(t *testing.T, g *graph.Graph, st *store.Store, m metrics.Metric, trivial bool) {
	schema := g.Schema()
	all, err := MineStore(st, Options{
		MinSupp: 3, MinScore: math.Inf(-1), Metric: m,
		IncludeTrivial: trivial, NoGeneralityFilter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.TopK) < 50 {
		t.Fatalf("only %d candidates; the property needs a richer graph", len(all.TopK))
	}
	// Threshold at the median candidate score, so verdicts split both ways.
	scores := make([]float64, 0, len(all.TopK))
	for _, s := range all.TopK {
		if !math.IsNaN(s.Score) {
			scores = append(scores, s.Score)
		}
	}
	sort.Float64s(scores)
	opt, err := Options{
		MinSupp: 3, MinScore: scores[len(scores)/2], Metric: m, K: 10,
		DynamicFloor: true, ExactGenerality: true, IncludeTrivial: trivial,
	}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	// verdict is Definition 5 condition (1) for one generalisation, gated on
	// triviality as hasQualifyingGeneralization gates it.
	verdict := func(c metrics.Counts, cand gr.GR) bool {
		if cand.Trivial(schema) && !opt.IncludeTrivial {
			return false
		}
		return c.LWR >= opt.MinSupp && m.Score(c) >= opt.MinScore
	}

	idx, _ := store.BuildBitmapIndex(st, 1, 1)
	counter := newMiner(st, opt) // kernel counts
	checker := newMiner(st, opt) // hasQualifyingGeneralization with its memo
	counter.scr.genIdx, checker.scr.genIdx = idx, idx
	seen := map[string]bool{}
	var probed, emptyLW, betaHom, qualifying int
	for _, cand := range all.TopK {
		wantBlocked := false
		for _, gen := range generalisations(cand.GR) {
			want := metrics.Eval(g, gen)
			qual := verdict(want, gen)
			wantBlocked = wantBlocked || qual
			key := gen.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			probed++
			if len(gen.L) == 0 && len(gen.W) == 0 {
				emptyLW++
			}
			got := counter.generalityCounts(gen)
			ok := got.E == want.E && got.LW == want.LW && got.LWR == want.LWR &&
				(!m.NeedsR || got.R == want.R) && (!m.NeedsHom || got.Hom == want.Hom)
			if !ok {
				t.Fatalf("%s: kernel counts %+v, Eval %+v", gen.Format(schema), got, want)
			}
			if !sameScore(m.Score(got), m.Score(want)) {
				t.Fatalf("%s: kernel score %v, Eval score %v", gen.Format(schema), m.Score(got), m.Score(want))
			}
			if gotQual := verdict(got, gen); gotQual != qual {
				t.Fatalf("%s: kernel verdict %v, Eval verdict %v", gen.Format(schema), gotQual, qual)
			}
			if qual {
				qualifying++
			}
			if m.NeedsHom && want.Hom > 0 {
				betaHom++
			}
		}
		if got := checker.hasQualifyingGeneralization(cand.GR); got != wantBlocked {
			t.Fatalf("%s: hasQualifyingGeneralization = %v, Eval says %v", cand.GR.Format(schema), got, wantBlocked)
		}
	}
	if emptyLW == 0 {
		t.Error("the L = W = ∅ generalisation was never probed")
	}
	if qualifying == 0 || qualifying == probed {
		t.Errorf("verdicts did not split: %d of %d generalisations qualify", qualifying, probed)
	}
	if m.NeedsHom && betaHom == 0 {
		t.Error("no probed generalisation with β ≠ ∅ and a non-zero homophily effect")
	}
}
