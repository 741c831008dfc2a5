package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"grminer/internal/baseline"
	"grminer/internal/core"
	"grminer/internal/dataset"
	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
)

// assertSameResults compares two ranked result lists exactly (GR identity,
// support, score, confidence).
func assertSameResults(t *testing.T, label string, got, want []gr.Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\n got: %v\nwant: %v", label, len(got), len(want), keys(got), keys(want))
	}
	for i := range want {
		if got[i].GR.Key() != want[i].GR.Key() {
			t.Fatalf("%s: rank %d: got %s want %s", label, i, got[i].GR.Key(), want[i].GR.Key())
		}
		if got[i].Supp != want[i].Supp || got[i].Score != want[i].Score || got[i].Conf != want[i].Conf {
			t.Fatalf("%s: rank %d (%s): got supp=%d score=%v conf=%v, want supp=%d score=%v conf=%v",
				label, i, got[i].GR.Key(),
				got[i].Supp, got[i].Score, got[i].Conf,
				want[i].Supp, want[i].Score, want[i].Conf)
		}
	}
}

func keys(rs []gr.Scored) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.GR.Key()
	}
	return out
}

func TestMineToyMatchesOracle(t *testing.T) {
	g := dataset.ToyDating()
	for _, minScore := range []float64{0, 0.3, 0.5, 0.8} {
		for _, minSupp := range []int{1, 2, 4} {
			opt := core.Options{MinSupp: minSupp, MinScore: minScore}
			res, err := core.Mine(g, opt)
			if err != nil {
				t.Fatalf("Mine: %v", err)
			}
			want, err := baseline.Oracle(g, baseline.OracleOptions{MinSupp: minSupp, MinScore: minScore})
			if err != nil {
				t.Fatalf("Oracle: %v", err)
			}
			assertSameResults(t, "toy", res.TopK, want)
		}
	}
}

// The paper's flagship example: with EDU homophilous, GR4 = (SEX:F,
// EDU:Grad) -> (EDU:College)-style preferences must surface with nhp 100%.
// (The most general form drops SEX:M from the RHS of the paper's GR4; the
// generality filter keeps that one.)
func TestMineToyFindsGR4Pattern(t *testing.T) {
	g := dataset.ToyDating()
	res, err := core.Mine(g, core.Options{MinSupp: 2, MinScore: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range res.TopK {
		lv, okL := s.GR.L.Get(dataset.ToyEdu)
		rv, okR := s.GR.R.Get(dataset.ToyEdu)
		if okL && okR && lv == dataset.EduGrad && rv == dataset.EduCollege && s.Score == 1.0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no Grad->College nhp=1.0 GR in results: %v", keys(res.TopK))
	}
}

func TestMineNeverReportsTrivial(t *testing.T) {
	g := dataset.ToyDating()
	res, err := core.Mine(g, core.Options{MinSupp: 1, MinScore: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.TopK {
		if s.GR.Trivial(g.Schema()) {
			t.Errorf("trivial GR reported: %s", s.GR.Format(g.Schema()))
		}
	}
	if res.Stats.TrivialSeen == 0 {
		t.Error("search never traversed a trivial partition; homophily chains unexplored")
	}
}

// randomGraph builds a reproducible small attributed graph.
func randomGraph(seed int64, homA, homB bool) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	schema, err := graph.NewSchema(
		[]graph.Attribute{
			{Name: "A", Domain: 3, Homophily: homA},
			{Name: "B", Domain: 2, Homophily: homB},
		},
		[]graph.Attribute{{Name: "W", Domain: 2}},
	)
	if err != nil {
		panic(err)
	}
	n := 6 + r.Intn(10)
	g := graph.MustNew(schema, n)
	for v := 0; v < n; v++ {
		// Allow null values to exercise the null-skipping path.
		if err := g.SetNodeValues(v, graph.Value(r.Intn(4)), graph.Value(r.Intn(3))); err != nil {
			panic(err)
		}
	}
	m := 10 + r.Intn(40)
	for e := 0; e < m; e++ {
		if _, err := g.AddEdge(r.Intn(n), r.Intn(n), graph.Value(r.Intn(3))); err != nil {
			panic(err)
		}
	}
	return g
}

// GRMiner with a static floor must reproduce the brute-force Definition 5
// evaluation exactly, across random graphs, homophily settings, metrics and
// thresholds. This is the central correctness test of the reproduction.
func TestMineMatchesOracleRandomized(t *testing.T) {
	configs := []struct {
		minSupp  int
		minScore float64
		k        int
	}{
		{1, 0, 0},
		{1, 0.4, 0},
		{2, 0.5, 0},
		{3, 0.25, 7},
		{1, 0.6, 3},
	}
	for seed := int64(0); seed < 25; seed++ {
		g := randomGraph(seed, seed%2 == 0, seed%3 == 0)
		for _, cfg := range configs {
			opt := core.Options{MinSupp: cfg.minSupp, MinScore: cfg.minScore, K: cfg.k}
			res, err := core.Mine(g, opt)
			if err != nil {
				t.Fatalf("seed %d: Mine: %v", seed, err)
			}
			want, err := baseline.Oracle(g, baseline.OracleOptions{
				MinSupp: cfg.minSupp, MinScore: cfg.minScore, K: cfg.k,
			})
			if err != nil {
				t.Fatalf("seed %d: Oracle: %v", seed, err)
			}
			assertSameResults(t, "randomized", res.TopK, want)
		}
	}
}

// Same comparison without the generality filter: every threshold-satisfying
// GR competes directly.
func TestMineMatchesOracleNoGenerality(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(seed, true, false)
		res, err := core.Mine(g, core.Options{MinSupp: 2, MinScore: 0.3, NoGeneralityFilter: true})
		if err != nil {
			t.Fatal(err)
		}
		want, err := baseline.Oracle(g, baseline.OracleOptions{
			MinSupp: 2, MinScore: 0.3, NoGeneralityFilter: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "no-generality", res.TopK, want)
	}
}

// Alternative metrics (Section VII): anti-monotone ones prune, the others
// fall back to support-only pruning; both must match the oracle.
func TestMineAlternativeMetricsMatchOracle(t *testing.T) {
	ms := []metrics.Metric{
		metrics.ConfMetric,
		metrics.LaplaceMetric,
		metrics.GainMetric,
		metrics.LiftMetric,
		metrics.ConvictionMetric,
		metrics.PSMetric,
	}
	for seed := int64(0); seed < 8; seed++ {
		g := randomGraph(seed, seed%2 == 0, true)
		for _, m := range ms {
			threshold := 0.2
			if m.Name == "piatetsky-shapiro" || m.Name == "gain" {
				threshold = 0.0 // these live near zero
			}
			res, err := core.Mine(g, core.Options{MinSupp: 2, MinScore: threshold, Metric: m})
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			want, err := baseline.Oracle(g, baseline.OracleOptions{
				MinSupp: 2, MinScore: threshold, Metric: m,
			})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, m.Name, res.TopK, want)
		}
	}
}

// GRMiner(k) with a huge k never upgrades the floor, so it must agree with
// plain GRMiner exactly.
func TestDynamicFloorLargeKEquivalence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(seed, true, true)
		static, err := core.Mine(g, core.Options{MinSupp: 1, MinScore: 0.3, K: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		dynamic, err := core.Mine(g, core.Options{MinSupp: 1, MinScore: 0.3, K: 1 << 20, DynamicFloor: true})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "large-k", dynamic.TopK, static.TopK)
	}
}

// GRMiner(k) with small k and ExactGenerality restores exact Definition 5
// semantics: it must match the static-floor miner on every seed. (Plain
// dynamic-floor pruning admits the corner case documented in DESIGN.md,
// where a pruned generalisation fails to block a specialisation; seed-level
// randomized runs do hit it, which is why ExactGenerality exists.)
func TestDynamicFloorSmallKExact(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := randomGraph(seed, seed%2 == 0, seed%3 != 0)
		static, err := core.Mine(g, core.Options{MinSupp: 1, MinScore: 0.3, K: 4})
		if err != nil {
			t.Fatal(err)
		}
		dynamic, err := core.Mine(g, core.Options{
			MinSupp: 1, MinScore: 0.3, K: 4,
			DynamicFloor: true, ExactGenerality: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "small-k", dynamic.TopK, static.TopK)
		if dynamic.Stats.Examined > static.Stats.Examined {
			t.Errorf("seed %d: dynamic floor examined more GRs (%d) than static (%d)",
				seed, dynamic.Stats.Examined, static.Stats.Examined)
		}
	}
}

// Plain (paper-faithful) GRMiner(k): even when the generality corner case
// fires, every returned GR must satisfy condition (1) exactly (recomputed by
// full scans), be non-trivial, be correctly ranked, and fit within k.
func TestDynamicFloorSmallKSound(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := randomGraph(seed, seed%2 == 0, seed%3 != 0)
		const k = 4
		res, err := core.Mine(g, core.Options{MinSupp: 1, MinScore: 0.3, K: k, DynamicFloor: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.TopK) > k {
			t.Fatalf("seed %d: %d results for k=%d", seed, len(res.TopK), k)
		}
		for i, s := range res.TopK {
			if s.GR.Trivial(g.Schema()) {
				t.Errorf("seed %d: trivial GR returned", seed)
			}
			c := metrics.Eval(g, s.GR)
			if c.LWR != s.Supp || metrics.Nhp(c) != s.Score {
				t.Errorf("seed %d: reported supp/score (%d, %v) disagree with rescan (%d, %v)",
					seed, s.Supp, s.Score, c.LWR, metrics.Nhp(c))
			}
			if s.Score < 0.3 || s.Supp < 1 {
				t.Errorf("seed %d: result violates thresholds: %+v", seed, s)
			}
			if i > 0 && gr.Less(s, res.TopK[i-1]) {
				t.Errorf("seed %d: rank order violated at %d", seed, i)
			}
		}
	}
}

// IncludeTrivial with the nhp metric (trivial GRs score by confidence since
// their β is empty) must still match the oracle exactly.
func TestMineIncludeTrivialMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomGraph(seed, true, seed%2 == 0)
		res, err := core.Mine(g, core.Options{MinSupp: 2, MinScore: 0.3, IncludeTrivial: true})
		if err != nil {
			t.Fatal(err)
		}
		want, err := baseline.Oracle(g, baseline.OracleOptions{
			MinSupp: 2, MinScore: 0.3, IncludeTrivial: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "include-trivial-nhp", res.TopK, want)
	}
}

func TestDescriptorCaps(t *testing.T) {
	g := dataset.ToyDating()
	res, err := core.Mine(g, core.Options{MinSupp: 1, MinScore: 0, MaxL: 1, MaxW: 0, MaxR: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) == 0 {
		t.Fatal("caps eliminated all results")
	}
	for _, s := range res.TopK {
		if len(s.GR.L) > 1 || len(s.GR.R) > 1 {
			t.Errorf("cap violated: %s", s.GR.Key())
		}
	}
	want, err := baseline.Oracle(g, baseline.OracleOptions{MinSupp: 1, MinScore: 0, MaxL: 1, MaxR: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "caps", res.TopK, want)
}

func TestMineEmptyAndDegenerate(t *testing.T) {
	schema, _ := graph.NewSchema([]graph.Attribute{{Name: "A", Domain: 2, Homophily: true}}, nil)
	empty := graph.MustNew(schema, 0)
	res, err := core.Mine(empty, core.Options{MinSupp: 1})
	if err != nil {
		t.Fatalf("core.Mine(empty): %v", err)
	}
	if len(res.TopK) != 0 {
		t.Errorf("empty graph produced GRs: %v", keys(res.TopK))
	}

	// All-null attributes: partitions exist but no descriptor can form.
	g := graph.MustNew(schema, 3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	res, err = core.Mine(g, core.Options{MinSupp: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 0 {
		t.Errorf("all-null graph produced GRs: %v", keys(res.TopK))
	}
}

func TestOptionValidation(t *testing.T) {
	g := dataset.ToyDating()
	if _, err := core.Mine(g, core.Options{K: -1}); err == nil {
		t.Error("negative K accepted")
	}
	if _, err := core.Mine(g, core.Options{DynamicFloor: true}); err == nil {
		t.Error("DynamicFloor without K accepted")
	}
	// MinSupp below 1 is clamped, not an error.
	res, err := core.Mine(g, core.Options{MinSupp: -5, MinScore: 0.99})
	if err != nil {
		t.Fatalf("clamped MinSupp errored: %v", err)
	}
	if res.Options.MinSupp != 1 {
		t.Errorf("MinSupp normalized to %d, want 1", res.Options.MinSupp)
	}
}

func TestWideSchemaRejected(t *testing.T) {
	attrs := make([]graph.Attribute, 65)
	for i := range attrs {
		attrs[i] = graph.Attribute{Name: fmt.Sprintf("A%d", i), Domain: 2, Homophily: true}
	}
	schema, err := graph.NewSchema(attrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.MustNew(schema, 2)
	if _, err := core.Mine(g, core.Options{MinSupp: 1}); err == nil {
		t.Error("65-node-attribute schema accepted; betaMask would overflow")
	}
}

func TestStatsAccounting(t *testing.T) {
	g := dataset.ToyDating()
	res, err := core.Mine(g, core.Options{MinSupp: 2, MinScore: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Examined == 0 || st.PartitionCalls == 0 {
		t.Errorf("stats not recorded: %+v", st)
	}
	if st.Candidates < int64(len(res.TopK)) {
		t.Errorf("candidates %d < results %d", st.Candidates, len(res.TopK))
	}
	if st.Duration <= 0 {
		t.Error("duration not recorded")
	}

	// A higher support threshold must not examine more GRs.
	strict, err := core.Mine(g, core.Options{MinSupp: 10, MinScore: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if strict.Stats.Examined > st.Examined {
		t.Errorf("minSupp=10 examined %d > minSupp=2 examined %d",
			strict.Stats.Examined, st.Examined)
	}
}

// Theorem 4(2): no non-trivial GR below both thresholds is ever examined...
// more precisely, every *recursed* GR meets minSupp, and for anti-monotone
// metrics subtrees below the floor are cut. We verify the observable
// consequence: tightening minNhp strictly reduces examined GRs on a graph
// with homophily structure.
func TestScorePruningReducesWork(t *testing.T) {
	g := dataset.ToyDating()
	loose, err := core.Mine(g, core.Options{MinSupp: 1, MinScore: 0})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := core.Mine(g, core.Options{MinSupp: 1, MinScore: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Stats.Examined >= loose.Stats.Examined {
		t.Errorf("minNhp=0.9 examined %d, minNhp=0 examined %d; pruning ineffective",
			tight.Stats.Examined, loose.Stats.Examined)
	}
	if tight.Stats.PrunedScore == 0 {
		t.Error("no score-based pruning happened at minNhp=0.9")
	}
}

// The miner must be deterministic: identical inputs give identical outputs
// and stats (modulo duration).
func TestDeterminism(t *testing.T) {
	g := randomGraph(7, true, false)
	a, err := core.Mine(g, core.Options{MinSupp: 2, MinScore: 0.3, K: 10, DynamicFloor: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Mine(g, core.Options{MinSupp: 2, MinScore: 0.3, K: 10, DynamicFloor: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "determinism", a.TopK, b.TopK)
	if core.Untimed(a.Stats) != core.Untimed(b.Stats) {
		t.Errorf("stats differ across identical runs: %+v vs %+v", a.Stats, b.Stats)
	}
}
