package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
	"grminer/internal/store"
)

// TestStaticMineWidthInvariant pins the static mine's contract: MineStore
// returns the same top-k at every width. A mine that may fan out walks on
// as many workers as the width allows, and under a static floor examines
// and admits the same GRs at every width, since only MinScore prunes it.
// Paper blocking declines: one worker walks, and the mine matches the
// one-worker walk counter for counter.
func TestStaticMineWidthInvariant(t *testing.T) {
	g := gateGraph()
	st := store.Build(g)
	base := Options{MinSupp: g.NumEdges() / 200, MinScore: 0.5, K: 50}
	type config struct {
		name string
		opt  Options
	}
	var configs []config
	for _, minScore := range []float64{0.5, 0} {
		static := base
		static.MinScore = minScore
		dyn := static
		dyn.DynamicFloor, dyn.ExactGenerality = true, true
		configs = append(configs,
			config{fmt.Sprintf("nhp-static-%v", minScore), static},
			config{fmt.Sprintf("nhp-dynamic-exact-%v", minScore), dyn})
	}
	lift := base
	lift.Metric, lift.MinScore = metrics.LiftMetric, 1
	conf := base
	conf.Metric, conf.IncludeTrivial = metrics.ConfMetric, true
	noGen := base
	noGen.DynamicFloor, noGen.NoGeneralityFilter = true, true
	staticOrder := base
	staticOrder.StaticRHSOrder = true
	paper := base
	paper.DynamicFloor = true
	configs = append(configs,
		config{"lift", lift}, config{"conf-trivial", conf}, config{"nogen", noGen},
		config{"static-rhs-order", staticOrder}, config{"paper-blocking", paper})

	for _, c := range configs {
		ref, workers, err := mineStore(st, c.opt, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(ref.TopK) == 0 {
			t.Fatalf("%s: the fixture mines nothing", c.name)
		}
		if workers != 1 {
			t.Fatalf("%s: %d workers at width 1", c.name, workers)
		}
		fans := fanOutExact(ref.Options, g.Schema())
		if fans == (c.name == "paper-blocking") {
			t.Fatalf("%s: fanOutExact = %v", c.name, fans)
		}
		for _, width := range []int{2, 4} {
			label := fmt.Sprintf("%s x%d", c.name, width)
			res, workers, err := mineStore(st, c.opt, width)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !fans {
				if workers != 1 {
					t.Errorf("%s: %d workers, want 1", label, workers)
				}
				sameResult(t, label, ref, res)
				continue
			}
			if workers != width {
				t.Errorf("%s: %d workers: the mine did not fan out", label, workers)
			}
			sameTopK(t, label, res.TopK, ref.TopK)
			if c.opt.DynamicFloor {
				continue // the local floors rise at their own pace: work varies, the answer does not
			}
			if res.Stats.Examined != ref.Stats.Examined || res.Stats.Candidates != ref.Stats.Candidates {
				t.Errorf("%s: examined/candidates %d/%d, sequential %d/%d", label,
					res.Stats.Examined, res.Stats.Candidates, ref.Stats.Examined, ref.Stats.Candidates)
			}
		}
	}
}

// wideGraph is a random graph over 12 node and 10 edge attributes: with no
// descriptor caps, its patterns can reach 22 conditions, past the exact
// generality kernel's reach.
func wideGraph(seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	node := make([]graph.Attribute, 12)
	for i := range node {
		node[i] = graph.Attribute{Name: fmt.Sprintf("N%d", i), Domain: 2, Homophily: i%3 == 0}
	}
	edge := make([]graph.Attribute, 10)
	for i := range edge {
		edge[i] = graph.Attribute{Name: fmt.Sprintf("E%d", i), Domain: 2}
	}
	schema, err := graph.NewSchema(node, edge)
	if err != nil {
		panic(err)
	}
	const n = 40
	g := graph.MustNew(schema, n)
	vals := make([]graph.Value, len(node))
	for v := 0; v < n; v++ {
		for a := range vals {
			vals[a] = graph.Value(1 + r.Intn(2))
		}
		if err := g.SetNodeValues(v, vals...); err != nil {
			panic(err)
		}
	}
	evals := make([]graph.Value, len(edge))
	for e := 0; e < 300; e++ {
		for a := range evals {
			evals[a] = graph.Value(1 + r.Intn(2))
		}
		if _, err := g.AddEdge(r.Intn(n), r.Intn(n), evals...); err != nil {
			panic(err)
		}
	}
	return g
}

// A static mine whose patterns can exceed the exact kernel's 20 conditions
// declines the fan-out and walks on one worker at every width; caps
// that keep patterns within reach let it fan out again, with the same
// answer.
func TestStaticMineWideSchemaDeclinesFanOut(t *testing.T) {
	st := store.Build(wideGraph(1))
	uncapped := Options{MinSupp: 40, MinScore: 0.5, K: 20}
	capped := uncapped
	capped.MaxL, capped.MaxW = 6, 4
	for _, c := range []struct {
		name string
		opt  Options
		fans bool
	}{{"uncapped", uncapped, false}, {"capped", capped, true}} {
		ref, _, err := mineStore(st, c.opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.TopK) == 0 {
			t.Fatalf("%s: the fixture mines nothing", c.name)
		}
		if got := fanOutExact(ref.Options, st.Graph().Schema()); got != c.fans {
			t.Fatalf("%s: fanOutExact = %v, want %v", c.name, got, c.fans)
		}
		res, workers, err := mineStore(st, c.opt, 4)
		if err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int{true: 4, false: 1}[c.fans]; workers != want {
			t.Errorf("%s: %d workers, want %d", c.name, workers, want)
		}
		if c.fans {
			sameTopK(t, c.name, res.TopK, ref.TopK)
		} else {
			sameResult(t, c.name, ref, res)
		}
	}
}

// TestFanOutExactRule pins when the static mine may fan out: the rule reads
// only the options and the schema's width.
func TestFanOutExactRule(t *testing.T) {
	schema := func(node, edge int) *graph.Schema {
		na := make([]graph.Attribute, node)
		for i := range na {
			na[i] = graph.Attribute{Name: fmt.Sprintf("N%d", i), Domain: 2}
		}
		ea := make([]graph.Attribute, edge)
		for i := range ea {
			ea[i] = graph.Attribute{Name: fmt.Sprintf("E%d", i), Domain: 2}
		}
		s, err := graph.NewSchema(na, ea)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	narrow, wide := schema(5, 2), schema(15, 8)
	for _, tc := range []struct {
		name   string
		opt    Options
		schema *graph.Schema
		want   bool
	}{
		{"static floor", Options{}, narrow, true},
		{"dynamic floor, exact generality", Options{DynamicFloor: true, ExactGenerality: true}, narrow, true},
		{"paper blocking", Options{DynamicFloor: true}, narrow, false},
		{"paper blocking, no filter", Options{DynamicFloor: true, NoGeneralityFilter: true}, narrow, true},
		{"wide schema", Options{}, wide, false},
		{"wide schema, no filter", Options{NoGeneralityFilter: true}, wide, true},
		{"wide schema, caps at 20", Options{MaxL: 12}, wide, true},
		{"wide schema, caps past 20", Options{MaxL: 13}, wide, false},
		{"wide schema, caps above the schema", Options{MaxL: 30, MaxW: 5}, wide, true},
	} {
		if got := fanOutExact(tc.opt, tc.schema); got != tc.want {
			t.Errorf("%s: fanOutExact = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// homophilyTargetsGraph is a graph whose destination-side supports of a
// homophily value fall below MinSupp 10 while its source-side support does
// not: 100 of the 105 edges out of A=1 sources reach A=2, only 5 reach
// A=1, and 4 more A=1 targets come from A=2 sources. (A:1) -> (A:2) then
// has nhp 100/(105-5) = 1, while a homophily-effect count made without the
// R(A=1) bitmap would read 100/105.
func homophilyTargetsGraph(t *testing.T) *graph.Graph {
	schema, err := graph.NewSchema([]graph.Attribute{
		{Name: "A", Domain: 2, Homophily: true},
		{Name: "C", Domain: 2, Homophily: true},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.MustNew(schema, 40)
	for v := 0; v < 40; v++ {
		a, c := graph.Value(1), graph.Value(1)
		if v >= 20 {
			a = 2
		} else if v >= 10 {
			c = 2
		}
		if err := g.SetNodeValues(v, a, c); err != nil {
			t.Fatal(err)
		}
	}
	for src := 0; src < 20; src++ {
		for j := 0; j < 5; j++ {
			if _, err := g.AddEdge(src, 20+(src*5+j)%20); err != nil {
				t.Fatal(err)
			}
		}
	}
	for src := 10; src < 15; src++ {
		if _, err := g.AddEdge(src, src-10); err != nil {
			t.Fatal(err)
		}
	}
	for src := 20; src < 24; src++ {
		if _, err := g.AddEdge(src, src-15); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestMineIndexCountsEveryGeneralisation pins what a fanned-out mine may
// leave out of its index: every count the generality kernel and the |E(r)|
// memo read for an examined GR or any of its generalisations (L∧W, L∧W∧R,
// R and the homophily effect) must come out of the minSupp index as out of
// the complete one. The walk captures every examined GR (no score
// threshold), on a Pokec-like graph and on homophilyTargetsGraph.
func TestMineIndexCountsEveryGeneralisation(t *testing.T) {
	all := metrics.Metric{Name: "all", Score: metrics.Nhp, NeedsHom: true, NeedsR: true, DeltaSafe: true, DeleteSafe: true}
	for _, c := range []struct {
		name    string
		g       *graph.Graph
		minSupp int
	}{{"pokec", fanOutGraph(), 24}, {"homophily-targets", homophilyTargetsGraph(t), 10}} {
		st := store.Build(c.g)
		cutIdx, cut := store.BuildBitmapIndex(st, c.minSupp, 1)
		fullIdx, _ := store.BuildBitmapIndex(st, 1, 1)
		if cut == 0 {
			t.Fatalf("%s: the minSupp index leaves nothing out", c.name)
		}
		m := newMiner(st, Options{MinSupp: c.minSupp, MinScore: math.Inf(-1), IncludeTrivial: true, Metric: all})
		var examined []gr.GR
		m.capture = func(g gr.GR, _ metrics.Counts, _ float64) { examined = append(examined, g) }
		walkAll(m)
		var onCut, onFull bitmapCounter
		checked := 0
		for _, g := range examined {
			n := len(g.L) + len(g.W)
			for mask := 0; mask < 1<<n; mask++ {
				var l, w gr.Descriptor
				for i, lc := range g.L {
					if mask&(1<<i) != 0 {
						l = l.With(lc.Attr, lc.Val)
					}
				}
				for i, wc := range g.W {
					if mask&(1<<(len(g.L)+i)) != 0 {
						w = w.With(wc.Attr, wc.Val)
					}
				}
				q := gr.GR{L: l, W: w, R: g.R}
				onCut.intersectLW(cutIdx, q)
				onFull.intersectLW(fullIdx, q)
				got := onCut.count(cutIdx, c.g.Schema(), all, q)
				want := onFull.count(fullIdx, c.g.Schema(), all, q)
				if got != want {
					t.Fatalf("%s: %s counts %+v off the minSupp index, %+v off the complete one", c.name, q.Key(), got, want)
				}
				checked++
			}
		}
		t.Logf("%s: %d examined GRs, %d counts checked, %d values left out", c.name, len(examined), checked, cut)
	}
}

// walkAll runs m's whole walk, one task after another in plan order, off
// a complete index of its store.
func walkAll(m *miner) {
	idx, _ := store.BuildBitmapIndex(m.st, 1, 1)
	m.scr.genIdx = idx
	tasks, sr, _ := m.plan(idx, nil)
	for i := range tasks {
		m.walkTask(&tasks[i], idx, sr)
	}
}

// TestStaticMinePhases: a static mine splits its wall time into index,
// plan, walk and merge, in that order, summing to Duration, at every
// width; its workers' busy time is positive and at most width × the walk.
func TestStaticMinePhases(t *testing.T) {
	g := gateGraph()
	st := store.Build(g)
	opt := Options{MinSupp: g.NumEdges() / 200, MinScore: 0.5, K: 50, DynamicFloor: true, ExactGenerality: true}
	for _, width := range []int{1, 2} {
		res, workers, err := mineStore(st, opt, width)
		if err != nil {
			t.Fatal(err)
		}
		p := res.Stats
		if workers != width {
			t.Fatalf("width %d: %d workers", width, workers)
		}
		if p.IndexTime <= 0 || p.PlanTime <= 0 || p.WalkTime <= 0 || p.MergeTime <= 0 {
			t.Fatalf("width %d: a phase took no time: %+v", width, p)
		}
		if sum := p.IndexTime + p.PlanTime + p.WalkTime + p.MergeTime; sum != p.Duration {
			t.Errorf("width %d: phases sum to %v, Duration %v", width, sum, p.Duration)
		}
		if p.WalkBusy <= 0 || p.WalkBusy > time.Duration(width)*p.WalkTime {
			t.Errorf("width %d: WalkBusy %v outside (0, %d × WalkTime %v]", width, p.WalkBusy, width, p.WalkTime)
		}
	}
}
