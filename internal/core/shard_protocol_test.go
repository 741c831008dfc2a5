package core_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"grminer/internal/core"
	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
)

// protocolTrace records what crosses the ShardWorker boundary during one
// mine: which shards offered which GR keys in round 1, and which
// (GR, shard) exact-count pairs round 2 requested.
type protocolTrace struct {
	mu        sync.Mutex
	offered   map[string]map[int]bool
	requested map[string]map[int]bool
}

func newProtocolTrace() *protocolTrace {
	return &protocolTrace{
		offered:   make(map[string]map[int]bool),
		requested: make(map[string]map[int]bool),
	}
}

func (tr *protocolTrace) mark(m map[string]map[int]bool, key string, shard int) {
	if m[key] == nil {
		m[key] = make(map[int]bool)
	}
	m[key][shard] = true
}

// tracingWorker wraps a real worker, recording its protocol traffic.
type tracingWorker struct {
	core.ShardWorker
	idx int
	tr  *protocolTrace
}

func (w tracingWorker) Offer(b *core.OfferBound) ([]core.ShardCandidate, core.Stats, error) {
	offers, stats, err := w.ShardWorker.Offer(b)
	w.tr.mu.Lock()
	for _, o := range offers {
		w.tr.mark(w.tr.offered, o.GR.Key(), w.idx)
	}
	w.tr.mu.Unlock()
	return offers, stats, err
}

func (w tracingWorker) Counts(grs []gr.GR) ([]metrics.Counts, error) {
	w.tr.mu.Lock()
	for _, g := range grs {
		w.tr.mark(w.tr.requested, g.Key(), w.idx)
	}
	w.tr.mu.Unlock()
	return w.ShardWorker.Counts(grs)
}

// tracingBuilder builds in-process workers wrapped with the trace.
func tracingBuilder(tr *protocolTrace) core.WorkerBuilder {
	return func(spec core.WorkerSpec) (core.ShardWorker, error) {
		w, err := core.InProcessWorkers(spec)
		if err != nil {
			return nil, err
		}
		return tracingWorker{ShardWorker: w, idx: spec.Index, tr: tr}, nil
	}
}

// singleSourceGraph routes every edge to one shard under ShardBySource —
// the maximal-skew layout, where the sketch caps should eliminate round-2
// requests entirely (the empty shards provably hold nothing).
func singleSourceGraph(t *testing.T) *graph.Graph {
	t.Helper()
	schema, err := graph.NewSchema([]graph.Attribute{
		{Name: "A", Domain: 3, Homophily: true},
	}, []graph.Attribute{{Name: "W", Domain: 2}})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.MustNew(schema, 10)
	for v := 0; v < 10; v++ {
		if err := g.SetNodeValues(v, graph.Value(v%3+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 10; i++ {
		if _, err := g.AddEdge(0, i, graph.Value(i%2+1)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestTwoRoundProtocolInvariants is the table-driven bound test of the
// count-then-verify protocol. For every layout it checks, against the
// recorded boundary traffic:
//
//  1. Round-2 exact-count requests are a strict subset of the round-1
//     offers: every requested GR was offered by some shard, the requested
//     (GR, shard) pairs are disjoint from the offering pairs, and some
//     offered GRs are never requested (the bound pays for itself).
//  2. No qualifying GR is pruned between rounds: every GR whose exact
//     global counts satisfy condition (1) — measured independently by a
//     full scan — is offered in round 1, and its counts are either known
//     from offers or requested on every missing shard in round 2.
//  3. The merged result equals the single-store reference, and the
//     recorded round-2 traffic matches Stats.ExactCountRequests.
func TestTwoRoundProtocolInvariants(t *testing.T) {
	cases := []struct {
		name     string
		graph    func(t *testing.T) *graph.Graph
		minSupp  int
		minScore float64
		k        int
		dyn      bool
		shards   int
		strategy graph.ShardStrategy
		metric   metrics.Metric
	}{
		{"nhp-4shards", func(t *testing.T) *graph.Graph { return randomGraph(21, true, true) }, 4, 0.3, 10, false, 4, graph.ShardBySource, metrics.NhpMetric},
		{"nhp-dynamic-3shards", func(t *testing.T) *graph.Graph { return randomGraph(22, true, false) }, 4, 0.3, 5, true, 3, graph.ShardByRHS, metrics.NhpMetric},
		{"conf-5shards", func(t *testing.T) *graph.Graph { return randomGraph(23, false, true) }, 6, 0.3, 10, false, 5, graph.ShardBySource, metrics.ConfMetric},
		{"lift-4shards", func(t *testing.T) *graph.Graph { return randomGraph(24, true, true) }, 4, 1.05, 10, false, 4, graph.ShardByRHS, metrics.LiftMetric},
		{"skew-all-one-shard", singleSourceGraph, 3, 0.1, 5, false, 4, graph.ShardBySource, metrics.NhpMetric},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.graph(t)
			tr := newProtocolTrace()
			opt := core.Options{
				MinSupp: tc.minSupp, MinScore: tc.minScore, K: tc.k,
				DynamicFloor: tc.dyn, Metric: tc.metric,
			}
			sc, err := core.NewShardCoordinatorFrom(g, opt,
				core.ShardOptions{Shards: tc.shards, Strategy: tc.strategy}, tracingBuilder(tr))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sc.Mine()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.Mine(g, sc.Options())
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, tc.name, res.TopK, ref.TopK)

			// (1) Requests ⊂ offers.
			requestedPairs, offeredPairs := 0, 0
			for key, shards := range tr.requested {
				offeredBy := tr.offered[key]
				if offeredBy == nil {
					t.Errorf("round-2 request for %s, which no shard offered", key)
					continue
				}
				for s := range shards {
					requestedPairs++
					if offeredBy[s] {
						t.Errorf("round-2 request for %s on shard %d, which already offered it", key, s)
					}
				}
			}
			unrequested := 0
			for key, shards := range tr.offered {
				offeredPairs += len(shards)
				if tr.requested[key] == nil {
					unrequested++
				}
			}
			if unrequested == 0 {
				t.Errorf("every offered GR was exact-count-requested — the bound pruned nothing")
			}
			if int64(requestedPairs) != res.Stats.ExactCountRequests {
				t.Errorf("trace saw %d round-2 requests, stats recorded %d", requestedPairs, res.Stats.ExactCountRequests)
			}

			// (2) No qualifying GR pruned between rounds: exact global
			// counts decide independently of the protocol. A shard that
			// neither offered a qualifying GR nor was queried must hold
			// exactly nothing the metric reads for it (the sketch-proven
			// zero-contribution skip).
			parts, err := graph.PartitionEdges(g, tc.shards, tc.strategy)
			if err != nil {
				t.Fatal(err)
			}
			for key, offeredBy := range tr.offered {
				sample := findOffered(t, g, sc.Options(), key)
				c := metrics.Eval(g, sample)
				if c.LWR < sc.Options().MinSupp {
					continue // not qualifying; any treatment is fine
				}
				for s := 0; s < tc.shards; s++ {
					if offeredBy[s] || tr.requested[key][s] {
						continue
					}
					lw, r := shardContribution(g, parts[s], sample)
					if lw > 0 || (tc.metric.NeedsR && r > 0) {
						t.Errorf("qualifying GR %s (global supp %d): shard %d holds lw=%d r=%d but was neither offered nor queried",
							key, c.LWR, s, lw, r)
					}
				}
			}
			t.Logf("offered %d GRs (%d pairs), requested %d pairs",
				len(tr.offered), offeredPairs, requestedPairs)
		})
	}
}

// failingIngestWorker fails Ingest on demand — the remote-transport failure
// mode the in-process workers can never produce.
type failingIngestWorker struct {
	core.ShardWorker
	fail *bool
}

func (w failingIngestWorker) Ingest(batch core.Batch) (core.IngestReply, error) {
	if *w.fail {
		return core.IngestReply{}, fmt.Errorf("injected transport failure")
	}
	return w.ShardWorker.Ingest(batch)
}

// A worker failure after the owned graph has grown must poison the engine:
// the coordinator and the failed worker disagree on the edge set, so a
// later Apply silently under-counting would break exactness. The engine
// must refuse all further batches instead.
func TestIncrementalShardedPoisonedAfterIngestFailure(t *testing.T) {
	g := randomGraph(31, true, true)
	fail := false
	inc, err := core.NewIncrementalShardedFrom(g, core.Options{MinSupp: 2, MinScore: 0.3, K: 5},
		core.ShardOptions{Shards: 3},
		core.WorkerBuilder(func(spec core.WorkerSpec) (core.ShardWorker, error) {
			w, err := core.InProcessWorkers(spec)
			if err != nil {
				return nil, err
			}
			return failingIngestWorker{ShardWorker: w, fail: &fail}, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Close()
	batch := []core.EdgeInsert{
		{Src: 0, Dst: 1, Vals: []graph.Value{1}},
		{Src: 1, Dst: 2, Vals: []graph.Value{2}},
		{Src: 2, Dst: 3, Vals: []graph.Value{1}},
	}
	if _, _, err := inc.ApplyBatch(core.Batch{Ins: batch}); err != nil {
		t.Fatalf("healthy apply failed: %v", err)
	}
	fail = true
	if _, _, err := inc.ApplyBatch(core.Batch{Ins: batch}); err == nil {
		t.Fatal("apply with a failing worker succeeded")
	}
	fail = false
	if _, _, err := inc.ApplyBatch(core.Batch{Ins: batch}); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("poisoned engine accepted a batch: %v", err)
	}
}

// shardContribution exactly counts one shard's LW and R contributions for a
// GR by scanning the shard's edge ids on the coordinator graph.
func shardContribution(g *graph.Graph, part []int32, sample gr.GR) (lw, r int) {
	match := func(d gr.Descriptor, val func(int, int) graph.Value, n int) bool {
		for _, c := range d {
			if val(n, c.Attr) != c.Val {
				return false
			}
		}
		return true
	}
	for _, e32 := range part {
		e := int(e32)
		if match(sample.L, g.NodeValue, g.Src(e)) && match(sample.W, g.EdgeValue, e) {
			lw++
		}
		if match(sample.R, g.NodeValue, g.Dst(e)) {
			r++
		}
	}
	return lw, r
}

// findOffered reparses a traced GR key back into a GR via the schema-free
// key format. Keys are produced by gr.GR.Key; reconstructing through
// ParseGR would need labels, so instead re-enumerate the offered pool from
// a fresh unbounded capture mine and match keys.
func findOffered(t *testing.T, g *graph.Graph, opt core.Options, key string) gr.GR {
	t.Helper()
	pool := offeredPoolCache(t, g, opt)
	sample, ok := pool[key]
	if !ok {
		t.Fatalf("offered key %s not reproducible by an unbounded mine", key)
	}
	return sample
}

var poolCache = map[string]map[string]gr.GR{}

// offeredPoolCache enumerates every GR with support ≥ 1 once per graph by
// mining with the laxest thresholds and no generality filter, giving the
// key → GR mapping the invariant checks need.
func offeredPoolCache(t *testing.T, g *graph.Graph, opt core.Options) map[string]gr.GR {
	t.Helper()
	cacheKey := fmt.Sprintf("%p-%s", g, opt.Metric.Name)
	if m, ok := poolCache[cacheKey]; ok {
		return m
	}
	lax := opt
	lax.MinSupp = 1
	lax.MinScore = -1e18
	lax.K = 0
	lax.DynamicFloor = false
	lax.NoGeneralityFilter = true
	lax.IncludeTrivial = true
	res, err := core.Mine(g, lax)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]gr.GR, len(res.TopK))
	for _, s := range res.TopK {
		m[s.GR.Key()] = s.GR
	}
	poolCache[cacheKey] = m
	return m
}

// TestWireOptionsCarryEveryOption guards the hand-written field lists of
// Options.Wire and WireOptions.Options: every Options field, set non-zero,
// must survive the round trip, and the two structs must name the same
// fields — an option missing from WireOptions would silently reach shard
// workers as its zero value.
func TestWireOptionsCarryEveryOption(t *testing.T) {
	lift, err := metrics.ByName("lift")
	if err != nil {
		t.Fatal(err)
	}
	var opt core.Options
	v := reflect.ValueOf(&opt).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch {
		case f.Type() == reflect.TypeOf(metrics.Metric{}):
			f.Set(reflect.ValueOf(lift))
		case f.Kind() == reflect.Int:
			f.SetInt(int64(i + 1))
		case f.Kind() == reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Options.%s has kind %s, which this test cannot set", v.Type().Field(i).Name, f.Kind())
		}
	}
	back, err := opt.Wire().Options()
	if err != nil {
		t.Fatal(err)
	}
	if back.Metric.Name != opt.Metric.Name {
		t.Errorf("Metric %q came back as %q", opt.Metric.Name, back.Metric.Name)
	}
	// Metric holds funcs, which reflect.DeepEqual never equates.
	back.Metric, opt.Metric = metrics.Metric{}, metrics.Metric{}
	if !reflect.DeepEqual(back, opt) {
		t.Errorf("wire round trip = %+v, want %+v", back, opt)
	}

	names := func(typ reflect.Type) map[string]bool {
		m := make(map[string]bool, typ.NumField())
		for i := 0; i < typ.NumField(); i++ {
			m[typ.Field(i).Name] = true
		}
		return m
	}
	optFields, wireFields := names(reflect.TypeOf(core.Options{})), names(reflect.TypeOf(core.WireOptions{}))
	for n := range optFields {
		if !wireFields[n] {
			t.Errorf("Options.%s has no WireOptions field", n)
		}
	}
	for n := range wireFields {
		if !optFields[n] {
			t.Errorf("WireOptions.%s has no Options field", n)
		}
	}
}
