package grminer_test

import (
	"strings"
	"testing"

	"grminer"
	"grminer/internal/core"
)

// mine runs a one-shot static engine over g.
func mine(t *testing.T, g *grminer.Graph, opt grminer.Options) *grminer.Result {
	t.Helper()
	e, err := grminer.Open(g, grminer.EngineConfig{Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Mine()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The facade must support the full quickstart flow end to end.
func TestFacadeQuickstart(t *testing.T) {
	g := grminer.ToyDating()
	res := mine(t, g, grminer.Options{MinSupp: 2, MinScore: 0.5, K: 10})
	if len(res.TopK) == 0 {
		t.Fatal("no GRs found on the toy network")
	}
	for _, s := range res.TopK {
		if s.Score < 0.5 || s.Supp < 2 {
			t.Errorf("threshold violated: %+v", s)
		}
		if !strings.Contains(s.GR.Format(g.Schema()), "->") {
			t.Errorf("Format output malformed: %q", s.GR.Format(g.Schema()))
		}
	}
}

func TestFacadeStoreReuse(t *testing.T) {
	g := grminer.ToyDating()
	st := grminer.BuildStore(g)
	e, err := grminer.OpenStore(st, grminer.EngineConfig{Options: grminer.Options{MinSupp: 2, MinScore: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Mine()
	if err != nil {
		t.Fatal(err)
	}
	b := mine(t, g, grminer.Options{MinSupp: 2, MinScore: 0.5})
	if len(a.TopK) != len(b.TopK) {
		t.Errorf("store reuse changed results: %d vs %d", len(a.TopK), len(b.TopK))
	}
}

func TestFacadeParseAndWorkbench(t *testing.T) {
	g := grminer.ToyDating()
	w := grminer.NewWorkbench(g)
	rep, err := w.QueryText("(SEX:F, EDU:Grad) -> (SEX:M, EDU:College)")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nhp != 1.0 {
		t.Errorf("GR4 nhp = %v", rep.Nhp)
	}
	r, err := grminer.ParseGR(g.Schema(), "(SEX:M) -> (SEX:F, RACE:Asian)")
	if err != nil {
		t.Fatal(err)
	}
	if c := grminer.EvalGR(g, r); c.LWR != 7 || c.LW != 14 {
		t.Errorf("GR1 counts = %+v", c)
	}
}

func TestFacadeMetrics(t *testing.T) {
	if len(grminer.AllMetrics()) != 7 {
		t.Errorf("expected 7 builtin metrics, got %d", len(grminer.AllMetrics()))
	}
	m, err := grminer.MetricByName("lift")
	if err != nil || m.Name != "lift" {
		t.Errorf("MetricByName(lift): %v", err)
	}
	if _, err := grminer.MetricByName("bogus"); err == nil {
		t.Error("unknown metric accepted")
	}
}

func TestFacadeGeneratorsAndBaselines(t *testing.T) {
	cfg := grminer.DefaultDBLPConfig()
	cfg.Authors = 800
	cfg.Pairs = 1200
	g := grminer.DBLP(cfg)

	miner := mine(t, g, grminer.Options{MinSupp: 5, MinScore: 0.5, K: 10})
	bl, err := grminer.BL2(g, grminer.BaselineOptions{MinSupp: 5, MinScore: 0.5, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(miner.TopK) != len(bl.TopK) {
		t.Fatalf("miner and baseline disagree: %d vs %d", len(miner.TopK), len(bl.TopK))
	}
	for i := range miner.TopK {
		if miner.TopK[i].GR.Key() != bl.TopK[i].GR.Key() {
			t.Fatalf("rank %d differs: %s vs %s", i, miner.TopK[i].GR.Key(), bl.TopK[i].GR.Key())
		}
	}

	conf, err := grminer.ConfMiner(g, 5, 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(conf.TopK) == 0 {
		t.Error("ConfMiner found nothing on a homophilous graph")
	}
}

func TestFacadeFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := grminer.ToyDating()
	sp, np, ep := dir+"/s.txt", dir+"/n.tsv", dir+"/e.tsv"
	if err := grminer.SaveFiles(g, sp, np, ep); err != nil {
		t.Fatal(err)
	}
	got, err := grminer.LoadFiles(sp, np, ep)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Error("file round trip lost data")
	}
}

// The incremental facade must track a fresh batch mine as edges stream in.
func TestFacadeIncremental(t *testing.T) {
	g := grminer.ToyDating()
	inc, err := grminer.Open(g, grminer.EngineConfig{Mode: grminer.ModeIncremental, Options: grminer.Options{
		MinSupp: 2, MinScore: 0.5, K: 5, DynamicFloor: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	prev := inc.Result().TopK
	res, bs, err := inc.ApplyBatch(grminer.Batch{Ins: []grminer.EdgeInsert{
		{Src: 0, Dst: 1, Vals: []grminer.Value{1}},
		{Src: 2, Dst: 3, Vals: []grminer.Value{1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Edges != 2 || res.TotalEdges != 32 {
		t.Fatalf("batch stats: %+v, total %d", bs, res.TotalEdges)
	}
	if grminer.TopKChanged(prev, res.TopK) == 0 && len(res.TopK) == 0 {
		t.Error("no results maintained")
	}
	// The maintained result equals a fresh mine of the grown graph.
	ref, err := core.Mine(g, inc.Options())
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.TopK) != len(res.TopK) {
		t.Fatalf("incremental %d results vs fresh %d", len(res.TopK), len(ref.TopK))
	}
	for i := range ref.TopK {
		if ref.TopK[i].GR.Key() != res.TopK[i].GR.Key() || ref.TopK[i].Score != res.TopK[i].Score {
			t.Fatalf("rank %d diverges", i)
		}
	}
	// Malformed batches are rejected wholesale.
	if _, _, err := inc.ApplyBatch(grminer.Batch{Ins: []grminer.EdgeInsert{{Src: -1, Dst: 0, Vals: []grminer.Value{1}}}}); err == nil {
		t.Error("malformed batch accepted")
	}
}
