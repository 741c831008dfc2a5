package grminer_test

import (
	"errors"
	"testing"

	"grminer"
	"grminer/internal/core"
	"grminer/internal/store"
)

func sameTopK(t *testing.T, want, got *grminer.Result, label string) {
	t.Helper()
	if want == nil || got == nil {
		t.Fatalf("%s: nil result (want %v, got %v)", label, want == nil, got == nil)
	}
	if len(want.TopK) != len(got.TopK) {
		t.Fatalf("%s: %d results vs %d", label, len(want.TopK), len(got.TopK))
	}
	for i := range want.TopK {
		if want.TopK[i].GR.Key() != got.TopK[i].GR.Key() || want.TopK[i].Score != got.TopK[i].Score {
			t.Fatalf("%s: rank %d diverges: %s vs %s", label,
				i, want.TopK[i].GR.Key(), got.TopK[i].GR.Key())
		}
	}
}

// Open's static local engine must reproduce the reference miner exactly,
// with and without Auto planning.
func TestOpenStaticLocal(t *testing.T) {
	g := grminer.ToyDating()
	opt := grminer.Options{MinSupp: 2, MinScore: 0.5, K: 10}
	ref, err := core.Mine(g, opt)
	if err != nil {
		t.Fatal(err)
	}

	e, err := grminer.Open(g, grminer.EngineConfig{Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Mode() != grminer.ModeStatic || e.Store() == nil || e.Incremental() != nil {
		t.Fatal("static local engine has the wrong shape")
	}
	if e.Result() != nil {
		t.Fatal("Result non-nil before the first Mine")
	}
	res, err := e.Mine()
	if err != nil {
		t.Fatal(err)
	}
	sameTopK(t, ref, res, "Open static")
	if e.Result() != res {
		t.Fatal("Result does not return the last Mine")
	}

	// Auto path == the reference miner under the store-sized plan.
	st := store.Build(g)
	wantPlan := core.PlanFor(st, opt)
	refAuto, err := core.MineStore(st, wantPlan.Apply(opt))
	if err != nil {
		t.Fatal(err)
	}
	ea, err := grminer.Open(g, grminer.EngineConfig{Options: opt, Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan, planned := ea.AutoPlan(); !planned || plan != wantPlan {
		t.Fatalf("Auto: true planned=%v %v, want %v", planned, plan, wantPlan)
	}
	resAuto, err := ea.Mine()
	if err != nil {
		t.Fatal(err)
	}
	sameTopK(t, refAuto, resAuto, "Open static auto")
}

// Static engines must refuse ingestion.
func TestOpenStaticRejectsIngest(t *testing.T) {
	e, err := grminer.Open(grminer.ToyDating(), grminer.EngineConfig{
		Options: grminer.Options{MinSupp: 2, MinScore: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.ApplyBatch(grminer.Batch{Ins: []grminer.EdgeInsert{{Src: 0, Dst: 1, Vals: []grminer.Value{1}}}}); err == nil {
		t.Fatal("static engine accepted a batch")
	}
	if e.Cumulative() != (grminer.IncStats{}) {
		t.Fatal("static engine reports ingest totals")
	}
}

// Open's incremental engine must maintain the same top-k a fresh mine
// produces, and Explain must surface the tracked counts of every
// maintained entry.
func TestOpenIncremental(t *testing.T) {
	opt := grminer.Options{MinSupp: 2, MinScore: 0.5, K: 5, DynamicFloor: true}
	e, err := grminer.Open(grminer.ToyDating(), grminer.EngineConfig{
		Mode: grminer.ModeIncremental, Options: opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Mode() != grminer.ModeIncremental || e.Incremental() == nil {
		t.Fatal("incremental engine has the wrong shape")
	}
	res, bs, err := e.ApplyBatch(grminer.Batch{Ins: []grminer.EdgeInsert{
		{Src: 0, Dst: 1, Vals: []grminer.Value{1}},
		{Src: 2, Dst: 3, Vals: []grminer.Value{1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Edges != 2 || e.Cumulative().Edges != 2 {
		t.Fatalf("batch stats: %+v cumulative %+v", bs, e.Cumulative())
	}
	ref, err := core.Mine(e.Graph(), e.Options())
	if err != nil {
		t.Fatal(err)
	}
	sameTopK(t, ref, res, "Open incremental")
	for _, s := range res.TopK {
		c, ok := e.Explain(s.GR)
		if !ok {
			t.Fatalf("maintained entry %s not explainable", s.GR.Key())
		}
		if c.LWR != s.Supp {
			t.Fatalf("Explain(%s): LWR %d vs supp %d", s.GR.Key(), c.LWR, s.Supp)
		}
	}
	if _, ok := e.Explain(grminer.GR{}); ok {
		t.Fatal("empty GR explained")
	}
}

// Open's sharded engines must reproduce the reference miner under their
// effective options.
func TestOpenSharded(t *testing.T) {
	opt := grminer.Options{MinSupp: 2, MinScore: 0.5, K: 5}
	so := grminer.ShardOptions{Shards: 3}

	e, err := grminer.Open(grminer.ToyDating(), grminer.EngineConfig{Options: opt, Shard: so})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Coordinator() == nil {
		t.Fatal("sharded engine has no coordinator")
	}
	if plan, ok := e.ShardPlan(); !ok || plan.Shards != 3 {
		t.Fatalf("ShardPlan: ok=%v plan=%+v", ok, plan)
	}
	res, err := e.Mine()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Mine(e.Graph(), e.Options())
	if err != nil {
		t.Fatal(err)
	}
	sameTopK(t, ref, res, "Open sharded")

	// Incremental sharded.
	ei, err := grminer.Open(grminer.ToyDating(), grminer.EngineConfig{
		Mode: grminer.ModeIncremental, Options: opt, Shard: so,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ei.Close()
	if ei.IncrementalSharded() == nil {
		t.Fatal("incremental sharded engine has the wrong shape")
	}
	resI, _, err := ei.ApplyBatch(grminer.Batch{Ins: []grminer.EdgeInsert{{Src: 0, Dst: 1, Vals: []grminer.Value{1}}}})
	if err != nil {
		t.Fatal(err)
	}
	refI, err := core.Mine(ei.Graph(), ei.Options())
	if err != nil {
		t.Fatal(err)
	}
	sameTopK(t, refI, resI, "Open incremental sharded")
}

// An explicit shard count below the worker list (idle daemons — almost
// certainly a mistyped flag) must surface the typed mismatch error from
// Open in every mode. A count above the list multiplexes instead; the
// remote oracle tests in internal/rpc cover that.
func TestShardWorkerMismatch(t *testing.T) {
	g := grminer.ToyDating()
	opt := grminer.Options{MinSupp: 2, MinScore: 0.5}
	so := grminer.ShardOptions{Shards: 2}
	workers := []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}

	_, err := grminer.Open(g, grminer.EngineConfig{Options: opt, Shard: so, Workers: workers})
	var mismatch *grminer.ErrShardWorkerMismatch
	if !errors.As(err, &mismatch) {
		t.Fatalf("Open: want *ErrShardWorkerMismatch, got %v", err)
	}
	if mismatch.Shards != 2 || mismatch.Workers != 3 {
		t.Fatalf("mismatch fields: %+v", mismatch)
	}

	if _, err := grminer.Open(g, grminer.EngineConfig{Mode: grminer.ModeIncremental, Options: opt, Shard: so, Workers: workers}); !errors.As(err, &mismatch) {
		t.Errorf("Open incremental: %v", err)
	}
}

// OpenStore supports only the static local variant.
func TestOpenStoreRejectsNonLocal(t *testing.T) {
	st := grminer.BuildStore(grminer.ToyDating())
	opt := grminer.Options{MinSupp: 2, MinScore: 0.5}
	if _, err := grminer.OpenStore(st, grminer.EngineConfig{Mode: grminer.ModeIncremental, Options: opt}); err == nil {
		t.Error("OpenStore accepted an incremental config")
	}
	if _, err := grminer.OpenStore(st, grminer.EngineConfig{Options: opt, Shard: grminer.ShardOptions{Shards: 2}}); err == nil {
		t.Error("OpenStore accepted a sharded config")
	}
	if _, err := grminer.OpenStore(st, grminer.EngineConfig{Options: opt, Workers: []string{"h:1"}}); err == nil {
		t.Error("OpenStore accepted a remote config")
	}
}
