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

func TestPlanWideSchemaCaps(t *testing.T) {
	wide := planSchema(t, 12, 9)
	p := core.PlanForSize(100_000, wide, core.Options{})
	if p.MaxL == 0 || p.MaxR == 0 || p.MaxW == 0 {
		t.Errorf("wide schema left descriptors uncapped: %+v", p)
	}

	narrow := planSchema(t, 3, 1)
	q := core.PlanForSize(100_000, narrow, core.Options{})
	if q.MaxL != 0 || q.MaxW != 0 || q.MaxR != 0 {
		t.Errorf("narrow schema got caps: %+v", q)
	}
}

func TestPlanUserSettingsWin(t *testing.T) {
	wide := planSchema(t, 12, 9)
	user := core.Options{MaxL: 9, MaxW: 9, MaxR: 9}
	p := core.PlanForSize(10_000_000, wide, user)
	got := p.Apply(user)
	if got.MaxL != 9 || got.MaxW != 9 || got.MaxR != 9 {
		t.Errorf("plan overrode user settings: %+v", got)
	}

	// Apply fills only zero fields.
	partial := core.Options{MaxL: 2}
	filled := core.PlanForSize(10_000_000, wide, partial).Apply(partial)
	if filled.MaxL != 2 {
		t.Errorf("Apply overrode MaxL: %d", filled.MaxL)
	}
	if filled.MaxR == 0 || filled.MaxW == 0 {
		t.Errorf("Apply left zero fields unfilled: %+v", filled)
	}
}

func TestPlanString(t *testing.T) {
	p := core.PlanForSize(1000, planSchema(t, 2, 1), core.Options{})
	s := p.String()
	for _, want := range []string{"|E|=1000", "dims=5", "caps L/W/R=0/0/0"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string %q missing %q", s, want)
		}
	}
}

// An auto-planned mine must return the same results as a hand-configured
// run: on the toy network the descriptor caps stay off (narrow schema), so
// results match plain Mine exactly.
func TestMineAutoMatchesMine(t *testing.T) {
	g := dataset.ToyDating()
	opt := core.Options{MinSupp: 2, MinScore: 0.5, K: 10}
	st := store.Build(g)
	auto, err := core.MineStore(st, core.PlanFor(st, opt).Apply(opt))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.Mine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "mineauto", auto.TopK, plain.TopK)
	if auto.Options.MaxL != 0 || auto.Options.MaxW != 0 || auto.Options.MaxR != 0 {
		t.Errorf("toy network auto-planned caps %+v", auto.Options)
	}
}
