package core_test

import (
	"fmt"
	"strings"
	"testing"

	"grminer/internal/core"
	"grminer/internal/dataset"
	"grminer/internal/graph"
	"grminer/internal/store"
)

func planSchema(t *testing.T, nodeAttrs, edgeAttrs int) *graph.Schema {
	t.Helper()
	na := make([]graph.Attribute, nodeAttrs)
	for i := range na {
		na[i] = graph.Attribute{Name: fmt.Sprintf("N%d", i), Domain: 3}
	}
	ea := make([]graph.Attribute, edgeAttrs)
	for i := range ea {
		ea[i] = graph.Attribute{Name: fmt.Sprintf("E%d", i), Domain: 2}
	}
	s, err := graph.NewSchema(na, ea)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPlanTiers(t *testing.T) {
	schema := planSchema(t, 4, 1) // dims = 9

	small := core.PlanForSize(1000, schema, 8, core.Options{})
	if small.Tier != "small" || small.Parallelism != 1 {
		t.Errorf("tiny input planned %+v; want sequential small tier", small)
	}

	big := core.PlanForSize(5_000_000, schema, 8, core.Options{})
	if big.Tier != "large" || big.Parallelism != 8 {
		t.Errorf("large input planned %+v; want all 8 workers", big)
	}

	// Medium inputs scale workers with available work instead of grabbing
	// the whole budget.
	mid := core.PlanForSize(60_000, schema, 64, core.Options{})
	if mid.Parallelism < 2 || mid.Parallelism >= 64 {
		t.Errorf("medium input planned %d workers of budget 64", mid.Parallelism)
	}

	// A single-CPU budget is always sequential.
	one := core.PlanForSize(5_000_000, schema, 1, core.Options{})
	if one.Parallelism != 1 {
		t.Errorf("procs=1 planned %d workers", one.Parallelism)
	}
}

// The dynamic-floor crossover is lower than the static one: the CI-measured
// BENCH_scaling.json artifact (|E|=7200, dims=12) crossed at 2 workers
// under a dynamic floor while the static floor never crossed, so the same
// size must plan parallel with DynamicFloor and sequential without.
func TestPlanDynamicFloorCrossover(t *testing.T) {
	schema := planSchema(t, 5, 2) // dims = 12, the measured artifact's shape
	dyn := core.PlanForSize(7200, schema, 4, core.Options{DynamicFloor: true, K: 100})
	if dyn.Parallelism < 2 {
		t.Errorf("measured dynamic crossover point planned %+v; want parallel", dyn)
	}
	static := core.PlanForSize(7200, schema, 4, core.Options{})
	if static.Tier != "small" || static.Parallelism != 1 {
		t.Errorf("static floor at the same size planned %+v; want sequential small tier", static)
	}
}

func TestPlanWideSchemaCaps(t *testing.T) {
	wide := planSchema(t, 12, 9)
	p := core.PlanForSize(100_000, wide, 4, core.Options{})
	if p.MaxL == 0 || p.MaxR == 0 || p.MaxW == 0 {
		t.Errorf("wide schema left descriptors uncapped: %+v", p)
	}

	narrow := planSchema(t, 3, 1)
	q := core.PlanForSize(100_000, narrow, 4, core.Options{})
	if q.MaxL != 0 || q.MaxW != 0 || q.MaxR != 0 {
		t.Errorf("narrow schema got caps: %+v", q)
	}
}

func TestPlanUserSettingsWin(t *testing.T) {
	wide := planSchema(t, 12, 9)
	user := core.Options{Parallelism: 3, MaxL: 9, MaxW: 9, MaxR: 9}
	p := core.PlanForSize(10_000_000, wide, 16, user)
	got := p.Apply(user)
	if got.Parallelism != 3 || got.MaxL != 9 || got.MaxW != 9 || got.MaxR != 9 {
		t.Errorf("plan overrode user settings: %+v", got)
	}

	// Apply fills only zero fields.
	partial := core.Options{MaxL: 2}
	filled := core.PlanForSize(10_000_000, wide, 16, partial).Apply(partial)
	if filled.MaxL != 2 {
		t.Errorf("Apply overrode MaxL: %d", filled.MaxL)
	}
	if filled.MaxR == 0 || filled.Parallelism == 0 {
		t.Errorf("Apply left zero fields unfilled: %+v", filled)
	}
}

func TestPlanString(t *testing.T) {
	p := core.PlanForSize(1000, planSchema(t, 2, 1), 4, core.Options{})
	s := p.String()
	for _, want := range []string{"|E|=1000", "tier=small", "sequential"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string %q missing %q", s, want)
		}
	}
}

// An auto-planned mine must return the same results as a hand-configured
// run: on the toy network the planner chooses the sequential path, and the
// descriptor caps stay off (narrow schema), so results match plain Mine
// exactly.
func TestMineAutoMatchesMine(t *testing.T) {
	g := dataset.ToyDating()
	opt := core.Options{MinSupp: 2, MinScore: 0.5, K: 10}
	st := store.Build(g)
	auto, err := core.MineStore(st, core.PlanFor(st, 0, opt).Apply(opt))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.Mine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "mineauto", auto.TopK, plain.TopK)
	if auto.Options.Parallelism != 1 {
		t.Errorf("toy network auto-planned %d workers", auto.Options.Parallelism)
	}
}
