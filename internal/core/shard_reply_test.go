package core_test

import (
	"strings"
	"testing"

	"grminer/internal/core"
	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/intern"
)

// tamperWorker is a real in-process worker whose replies a test rewrites
// before the coordinator sees them: a stand-in for a buggy or hostile
// remote daemon.
type tamperWorker struct {
	*core.WorkerState
	seed   func([]core.ShardCandidate)                       // rewrites the seeding offer, if set
	round1 func([]core.ShardCandidate) []core.ShardCandidate // rewrites a bounded offer, if set
	ingest func(*core.IngestReply)                           // rewrites the next ingest reply, if set
	honest *core.IngestReply                                 // the last reply before rewriting
}

func (w *tamperWorker) Offer(b *core.OfferBound) ([]core.ShardCandidate, core.Stats, error) {
	offers, stats, err := w.WorkerState.Offer(b)
	if err == nil && b == nil && w.seed != nil {
		w.seed(offers)
	}
	if err == nil && b != nil && w.round1 != nil {
		offers = w.round1(offers)
	}
	return offers, stats, err
}

func (w *tamperWorker) Ingest(b core.Batch) (core.IngestReply, error) {
	rep, err := w.WorkerState.Ingest(b)
	if err != nil {
		return rep, err
	}
	honest := rep
	w.honest = &honest
	if w.ingest != nil {
		w.ingest(&rep)
		w.ingest = nil
	}
	return rep, nil
}

// replyFixture is a 2-shard engine whose shard 0 reply the test controls,
// and a batch routed entirely to shard 0 whose honest reply refreshes,
// demotes and admits pool entries.
type replyFixture struct {
	inc   *core.IncrementalSharded
	g     *graph.Graph // the graph inc owns
	w0    *tamperWorker
	batch core.Batch
}

func newReplyFixture(t testing.TB, seedTamper func([]core.ShardCandidate)) (*replyFixture, error) {
	t.Helper()
	full := randomGraph(5, true, false)
	base := full.NumEdges() * 3 / 5
	var w0 *tamperWorker
	build := core.WorkerBuilder(func(spec core.WorkerSpec) (core.ShardWorker, error) {
		w, err := core.NewWorkerState(spec)
		if err != nil {
			return nil, err
		}
		tw := &tamperWorker{WorkerState: w}
		if spec.Index == 0 {
			tw.seed = seedTamper
			w0 = tw
		}
		return tw, nil
	})
	g := prefixGraph(full, base)
	inc, err := core.NewIncrementalShardedFrom(g, core.Options{MinSupp: 4, MinScore: 0.3, K: 10}, core.ShardOptions{Shards: 2}, build)
	if err != nil {
		return nil, err
	}
	f := &replyFixture{inc: inc, g: g, w0: w0}
	onShard0 := func(src, dst int) bool {
		s, err := g.ShardOf(inc.Plan().Strategy, 2, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		return s == 0
	}
	for e := base; e < full.NumEdges(); e++ {
		if full.EdgeAlive(e) && onShard0(full.Src(e), full.Dst(e)) {
			f.batch.Ins = append(f.batch.Ins, core.EdgeInsert{Src: full.Src(e), Dst: full.Dst(e), Vals: full.EdgeValues(e)})
		}
	}
	for e := 0; e < base && len(f.batch.Del) < 3; e++ {
		if onShard0(g.Src(e), g.Dst(e)) {
			f.batch.Del = append(f.batch.Del, core.EdgeDelete{Src: g.Src(e), Dst: g.Dst(e), Vals: g.EdgeValues(e)})
		}
	}
	return f, nil
}

// TestShardReplyFixtureHonest pins the fixture the hostile-reply tests rely on:
// untampered, its batch applies exactly, and shard 0's reply has entrants,
// demotions and refreshes for the tampering to corrupt.
func TestShardReplyFixtureHonest(t *testing.T) {
	f, err := newReplyFixture(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.inc.Close()
	res, _, err := f.inc.ApplyBatch(f.batch)
	if err != nil {
		t.Fatal(err)
	}
	rep := f.w0.honest
	if rep == nil || len(rep.Entered) == 0 || len(rep.Deltas) <= len(rep.Entered) {
		t.Fatalf("fixture reply lacks entrants or refreshes: %+v", rep)
	}
	demoted := 0
	for _, lwr := range rep.LWR {
		if int(lwr) < f.inc.Plan().ShardMinSupp {
			demoted++
		}
	}
	if demoted == 0 {
		t.Fatal("fixture reply demotes nothing")
	}
	ref, err := core.Mine(f.g, f.inc.Options())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "honest reply", res.TopK, ref.TopK)
}

// TestShardReplyFailsClosed feeds the coordinator malformed shard replies.
// Each must fail the batch with an error naming the defect — never a panic
// — and poison the engine, because the union pool no longer mirrors the
// worker.
func TestShardReplyFailsClosed(t *testing.T) {
	entrant := func(rep *core.IngestReply) *core.ShardCandidate { return &rep.Entered[0] }
	// refreshed returns the index of a delta that is neither an entrant nor
	// a demotion.
	refreshed := func(rep *core.IngestReply) int {
		in := map[int32]bool{}
		for _, e := range rep.Entered {
			in[int32(e.Handle)] = true
		}
		for i, h := range rep.Deltas {
			if !in[h] && rep.LWR[i] >= 2 {
				return i
			}
		}
		panic("fixture reply has no refreshed delta")
	}
	cases := []struct {
		name   string
		want   string
		tamper func(*core.IngestReply)
	}{
		{"short LWR column", "misaligned", func(r *core.IngestReply) { r.LWR = r.LWR[1:] }},
		{"long LW column", "misaligned", func(r *core.IngestReply) { r.LW = append(r.LW, 7) }},
		{"missing Hom column", "misaligned", func(r *core.IngestReply) { r.Hom = nil }},
		{"R column the metric does not read", "misaligned", func(r *core.IngestReply) { r.R = make([]int32, len(r.Deltas)) }},
		{"unknown handle", "neither tracked nor entering", func(r *core.IngestReply) { r.Deltas[refreshed(r)] = 1 << 20 }},
		{"negative handle", "neither tracked nor entering", func(r *core.IngestReply) { r.Deltas[0] = -1 }},
		{"entrant dropped", "neither tracked nor entering", func(r *core.IngestReply) { r.Entered = r.Entered[:len(r.Entered)-1] }},
		{"entrant handle far out of range", "outside", func(r *core.IngestReply) { entrant(r).Handle = 1 << 30 }},
		{"entrant handle already tracked", "already tracked", func(r *core.IngestReply) {
			entrant(r).Handle = intern.GRID(r.Deltas[refreshed(r)])
		}},
		{"entrant attribute out of range", "out of range", func(r *core.IngestReply) {
			entrant(r).GR = gr.GR{L: gr.Descriptor{{Attr: 9, Val: 1}}}
		}},
		{"entrant null value", "null value", func(r *core.IngestReply) {
			entrant(r).GR = gr.GR{L: gr.Descriptor{{Attr: 0, Val: graph.Null}}}
		}},
		{"entrant value out of domain", "out of domain", func(r *core.IngestReply) {
			entrant(r).GR = gr.GR{W: gr.Descriptor{{Attr: 0, Val: 3}}}
		}},
		{"entrant listed twice", "already tracked", func(r *core.IngestReply) {
			r.Entered = append(r.Entered, r.Entered[0])
		}},
		{"entrant without a delta", "has no delta", func(r *core.IngestReply) {
			h := r.Entered[0].Handle
			for j := range r.Deltas {
				if r.Deltas[j] == int32(h) {
					r.Deltas = append(r.Deltas[:j:j], r.Deltas[j+1:]...)
					r.LWR = append(r.LWR[:j:j], r.LWR[j+1:]...)
					r.LW = append(r.LW[:j:j], r.LW[j+1:]...)
					r.Hom = append(r.Hom[:j:j], r.Hom[j+1:]...)
					return
				}
			}
		}},
		{"repeated handle", "repeated", func(r *core.IngestReply) {
			i := refreshed(r)
			r.Deltas = append(r.Deltas, r.Deltas[i])
			r.LWR = append(r.LWR, r.LWR[i])
			r.LW = append(r.LW, r.LW[i])
			r.Hom = append(r.Hom, r.Hom[i])
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := newReplyFixture(t, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer f.inc.Close()
			f.w0.ingest = tc.tamper
			_, _, err = f.inc.ApplyBatch(f.batch)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("tampered reply: got error %v, want one containing %q", err, tc.want)
			}
			if _, _, err := f.inc.ApplyBatch(core.Batch{}); err == nil || !strings.Contains(err.Error(), "unusable") {
				t.Fatalf("engine not poisoned after a rejected reply: %v", err)
			}
		})
	}
}

// TestShardSeedOfferFailsClosed applies the same checks to the seeding offer,
// which the coordinator mirrors by handle too: a repeated or far
// out-of-range handle, or a malformed GR, fails construction.
func TestShardSeedOfferFailsClosed(t *testing.T) {
	for name, tamper := range map[string]func([]core.ShardCandidate){
		"repeated handle":     func(o []core.ShardCandidate) { o[1].Handle = o[0].Handle },
		"handle out of range": func(o []core.ShardCandidate) { o[0].Handle = intern.GRID(len(o)) },
		"malformed GR":        func(o []core.ShardCandidate) { o[0].GR = gr.GR{R: gr.Descriptor{{Attr: 5, Val: 1}}} },
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := newReplyFixture(t, tamper); err == nil || !strings.Contains(err.Error(), "seed") {
				t.Fatalf("tampered seed offer accepted: %v", err)
			}
		})
	}
}

// TestShardCoordinatorOfferFailsClosed feeds the static sharded mine
// hostile round-1 offers. The coordinator enters every offer into its
// union through the same checks the incremental engine applies, so a GR
// malformed for the schema or offered twice by one shard fails the mine
// with an error, never a panic; the honest offers mine exactly.
func TestShardCoordinatorOfferFailsClosed(t *testing.T) {
	g := randomGraph(5, true, false)
	opt := core.Options{MinSupp: 4, MinScore: 0.3, K: 10}
	mine := func(tamper func([]core.ShardCandidate) []core.ShardCandidate) (*core.Result, *core.ShardCoordinator, error) {
		build := core.WorkerBuilder(func(spec core.WorkerSpec) (core.ShardWorker, error) {
			w, err := core.NewWorkerState(spec)
			if err != nil {
				return nil, err
			}
			tw := &tamperWorker{WorkerState: w}
			if spec.Index == 1 {
				tw.round1 = tamper
			}
			return tw, nil
		})
		sc, err := core.NewShardCoordinatorFrom(g, opt, core.ShardOptions{Shards: 2}, build)
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		res, err := sc.Mine()
		return res, sc, err
	}
	res, sc, err := mine(func(o []core.ShardCandidate) []core.ShardCandidate {
		if len(o) < 2 {
			t.Fatalf("fixture shard offers %d candidates, want at least 2", len(o))
		}
		return o
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Mine(g, sc.Options())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "honest offers", res.TopK, ref.TopK)

	for _, tc := range []struct {
		name, want string
		tamper     func([]core.ShardCandidate) []core.ShardCandidate
	}{
		{"attribute beyond the schema", "out of range", func(o []core.ShardCandidate) []core.ShardCandidate {
			o[0].GR = gr.GR{L: gr.Descriptor{{Attr: 99, Val: 1}}, R: o[0].GR.R}
			return o
		}},
		{"value beyond the domain", "out of domain", func(o []core.ShardCandidate) []core.ShardCandidate {
			o[0].GR = gr.GR{W: gr.Descriptor{{Attr: 0, Val: 3}}, R: o[0].GR.R}
			return o
		}},
		{"duplicated offer", "already tracked", func(o []core.ShardCandidate) []core.ShardCandidate {
			return append(o, o[len(o)/2])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := mine(tc.tamper)
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "shard 1 offer") {
				t.Fatalf("tampered offer: got error %v, want one naming shard 1's offer and %q", err, tc.want)
			}
		})
	}
}

// FuzzApplyIngestReply corrupts shard 0's ingest reply with fuzzer-chosen
// edits before the coordinator applies it. Each 2-byte op (kind, arg)
// truncates or extends a count column, overwrites, repeats, swaps or
// appends a delta handle, rewrites a count, or drops, repeats, re-handles
// or malforms an entrant. Whatever the edits, the coordinator must not
// panic: a rejected reply must leave the engine poisoned, an accepted one
// must leave the union table's invariants intact, and an unedited reply
// must apply exactly.
func FuzzApplyIngestReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 32 {
			ops = ops[:32] // bound the work of one input
		}
		fx, err := newReplyFixture(t, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer fx.inc.Close()
		if err := core.CheckUnionTable(fx.inc); err != nil {
			t.Fatalf("after the seed: %v", err)
		}
		edits := len(ops) / 2
		fx.w0.ingest = func(r *core.IngestReply) {
			for ; len(ops) >= 2; ops = ops[2:] {
				corruptReply(r, ops[0], ops[1])
			}
		}
		res, _, err := fx.inc.ApplyBatch(fx.batch)
		if err != nil {
			if _, _, err := fx.inc.ApplyBatch(core.Batch{}); err == nil {
				t.Fatal("engine accepted a batch after rejecting a reply")
			}
			return
		}
		if err := core.CheckUnionTable(fx.inc); err != nil {
			t.Fatalf("after an accepted reply: %v", err)
		}
		if edits == 0 {
			ref, err := core.Mine(fx.g, fx.inc.Options())
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, "unedited reply", res.TopK, ref.TopK)
		}
	})
}

// corruptReply applies one fuzz edit to r (see FuzzApplyIngestReply).
func corruptReply(r *core.IngestReply, kind, arg byte) {
	handle := int32(arg) - 8
	if kind&0x80 != 0 {
		handle <<= 20
	}
	n, ne := len(r.Deltas), len(r.Entered)
	i, j := 0, 0
	if n > 0 {
		i = int(arg) % n
	}
	if ne > 0 {
		j = int(arg) % ne
	}
	cols := []*[]int32{&r.LWR, &r.LW, &r.Hom, &r.R}
	switch kind % 11 {
	case 0: // truncate a column
		if c := cols[arg%4]; len(*c) > 0 {
			*c = (*c)[:len(*c)-1]
		}
	case 1: // extend a column
		c := cols[arg%4]
		*c = append(*c, int32(arg))
	case 2: // repeat a neighbour's handle
		if n > 1 {
			r.Deltas[i] = r.Deltas[(i+1)%n]
		}
	case 3: // overwrite a handle
		if n > 0 {
			r.Deltas[i] = handle
		}
	case 4: // swap two deltas' handles
		if n > 0 {
			k := (i + int(kind>>4)) % n
			r.Deltas[i], r.Deltas[k] = r.Deltas[k], r.Deltas[i]
		}
	case 5: // rewrite a count, possibly below the shard threshold or negative
		if n > 0 && len(r.LWR) > i {
			r.LWR[i] = int32(arg) - 8
		}
	case 6: // append a delta to every present column
		r.Deltas = append(r.Deltas, handle)
		for _, c := range cols {
			if len(*c) > 0 {
				*c = append(*c, 1)
			}
		}
	case 7: // drop an entrant
		if ne > 0 {
			r.Entered = append(r.Entered[:j:j], r.Entered[j+1:]...)
		}
	case 8: // repeat an entrant
		if ne > 0 {
			r.Entered = append(r.Entered, r.Entered[j])
		}
	case 9: // re-handle an entrant
		if ne > 0 {
			r.Entered[j].Handle = intern.GRID(handle)
		}
	case 10: // give an entrant a condition that may be malformed
		if ne > 0 {
			c := gr.Cond{Attr: int(arg%5) - 1, Val: graph.Value(arg >> 4)}
			r.Entered[j].GR = gr.GR{L: gr.Descriptor{c}, R: r.Entered[j].GR.R}
		}
	}
}
