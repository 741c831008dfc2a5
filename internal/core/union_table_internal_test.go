package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"grminer/internal/datagen"
	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
)

// requestLog is an in-process worker that keeps every round-2 request it
// answers, gob-encoded on its own.
type requestLog struct {
	*WorkerState
	reqs [][]byte
}

func (r *requestLog) Counts(grs []gr.GR) ([]metrics.Counts, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(grs); err != nil {
		return nil, err
	}
	r.reqs = append(r.reqs, buf.Bytes())
	return r.WorkerState.Counts(grs)
}

// check verifies the union table's invariants: every column has one row
// per slot; every slot's key is its GR's key and maps back to the slot;
// the key map holds nothing else; every slot is tracked by some shard and
// by no shard past the last; a bound handle belongs to a tracked entry and
// its shard's mirror points back at the slot; a shard that does not track
// a slot holds zero counts for it; and every mirror entry names
// a live slot bound to that handle. With bound set, every tracked entry
// has a handle, and its known support is at least minLWR.
func (t *unionTable) check(bound bool, minLWR int32) error {
	n := t.len()
	if len(t.keys) != n || len(t.have) != n*t.words || len(t.byKey) != n {
		return fmt.Errorf("%d slots, %d keys, %d bitset words (%d per slot), %d mapped keys", n, len(t.keys), len(t.have), t.words, len(t.byKey))
	}
	for s := range t.shards {
		if len(t.capUntil[s]) != n {
			return fmt.Errorf("shard %d: the cap cache holds %d rows for %d slots", s, len(t.capUntil[s]), n)
		}
		cols := [][]int32{t.lwr[s], t.lw[s], t.handle[s]}
		if t.hom != nil {
			cols = append(cols, t.hom[s])
		}
		if t.r != nil {
			cols = append(cols, t.r[s])
		}
		for _, c := range cols {
			if len(c) != n {
				return fmt.Errorf("shard %d: a column holds %d rows for %d slots", s, len(c), n)
			}
		}
	}
	for slot := range int32(n) {
		g := t.grs[slot]
		if t.keys[slot] != g.Key() || t.byKey[t.keys[slot]] != slot {
			return fmt.Errorf("slot %d holds %v under key %q, which maps to slot %d", slot, g, t.keys[slot], t.byKey[t.keys[slot]])
		}
		tracked := 0
		for s := range t.words * 64 {
			if t.have[int(slot)*t.words+s>>6]&(1<<(s&63)) == 0 {
				continue
			}
			if s >= t.shards {
				return fmt.Errorf("slot %d (%v) is tracked by shard %d of %d", slot, g, s, t.shards)
			}
			tracked++
			if bound && (t.handle[s][slot] < 0 || t.lwr[s][slot] < minLWR) {
				return fmt.Errorf("slot %d (%v): shard %d tracks it under handle %d with support %d", slot, g, s, t.handle[s][slot], t.lwr[s][slot])
			}
		}
		if tracked == 0 {
			return fmt.Errorf("slot %d (%v) is tracked by no shard", slot, g)
		}
		for s := range t.shards {
			if !t.has(slot, s) {
				c := metrics.Counts{LWR: int(t.lwr[s][slot]), LW: int(t.lw[s][slot])}
				if t.hom != nil {
					c.Hom = int(t.hom[s][slot])
				}
				if t.r != nil {
					c.R = int(t.r[s][slot])
				}
				if c != (metrics.Counts{}) {
					return fmt.Errorf("slot %d (%v): shard %d does not track it but holds counts %+v", slot, g, s, c)
				}
			}
			h := t.handle[s][slot]
			if h < 0 {
				continue
			}
			if !t.has(slot, s) || int(h) >= len(t.mirror[s].cand) || t.mirror[s].cand[h] != slot {
				return fmt.Errorf("slot %d (%v): shard %d handle %d is not a mirrored handle of a tracked entry", slot, g, s, h)
			}
		}
	}
	for s, ht := range t.mirror {
		for h, slot := range ht.cand {
			if slot < 0 {
				continue
			}
			if int(slot) >= n || t.handle[s][slot] != int32(h) {
				return fmt.Errorf("shard %d handle %d points at slot %d of %d, which it is not bound to", s, h, slot, n)
			}
		}
	}
	return nil
}

// checkCaps verifies the sketch cap cache: wherever it still vouches for
// a slot, the shard's sketch caps the slot's GR at limit or above.
func (t *unionTable) checkCaps(sketches []ShardSketch, limit int) error {
	for s, sk := range sketches {
		for slot, until := range t.capUntil[s] {
			if t.routed[s] <= until {
				if m := sk.minSingle(t.grs[slot]); m < limit {
					return fmt.Errorf("shard %d: the cache caps slot %d (%v) at %d until %d routed edges (now %d), its sketch at %d",
						s, slot, t.grs[slot], limit, until, t.routed[s], m)
				}
			}
		}
	}
	return nil
}

// checkUnionTable asserts the coordinator's union table invariants (see
// unionTable.check and checkCaps) and that each shard tracks exactly as many entries as
// its worker's pool holds.
func checkUnionTable(t *testing.T, label string, inc *IncrementalSharded, logs []*requestLog) {
	t.Helper()
	pool := inc.pool
	if err := CheckUnionTable(inc); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for s, ht := range pool.mirror {
		handles := 0
		for _, slot := range ht.cand {
			if slot >= 0 {
				handles++
			}
		}
		tracked := 0
		for slot := range int32(pool.len()) {
			if pool.has(slot, s) {
				tracked++
			}
		}
		if handles != tracked || handles != logs[s].pool.len() {
			t.Fatalf("%s: shard %d mirrors %d handles, the table tracks %d entries, the worker pool holds %d",
				label, s, handles, tracked, logs[s].pool.len())
		}
	}
}

// TestShardUnionTableInvariants runs a fully dynamic 3-shard stream — every
// batch retracts live edges and inserts held-out or earlier-retracted ones,
// so union entries enter and leave all the time — and checks the union
// table's invariants after the seed and every batch, and the final top-k
// against a fresh mine. It runs the stream twice: the two runs must send
// byte-identical round-2 request sequences to every shard, because the
// table's slot order is fixed by the sequence of offers and deltas alone.
func TestShardUnionTableInvariants(t *testing.T) {
	cfg := datagen.DefaultPokecConfig()
	cfg.Nodes, cfg.AvgOutDegree = 300, 8
	full := datagen.Pokec(cfg)
	base := full.NumEdges() * 3 / 4
	opt := Options{MinSupp: 30, MinScore: 0.4, K: 20, DynamicFloor: true}

	run := func() ([][][]byte, int) {
		g := graph.MustNew(full.Schema(), full.NumNodes())
		for v := 0; v < full.NumNodes(); v++ {
			if err := g.SetNodeValues(v, full.NodeValues(v)...); err != nil {
				t.Fatal(err)
			}
		}
		for e := 0; e < base; e++ {
			if _, err := g.AddEdge(full.Src(e), full.Dst(e), full.EdgeValues(e)...); err != nil {
				t.Fatal(err)
			}
		}
		var logs []*requestLog
		build := WorkerBuilder(func(spec WorkerSpec) (ShardWorker, error) {
			w, err := NewWorkerState(spec)
			if err != nil {
				return nil, err
			}
			l := &requestLog{WorkerState: w}
			logs = append(logs, l)
			return l, nil
		})
		inc, err := NewIncrementalShardedFrom(g, opt, ShardOptions{Shards: 3}, build)
		if err != nil {
			t.Fatal(err)
		}
		defer inc.Close()
		checkUnionTable(t, "seed", inc, logs)

		r := rand.New(rand.NewSource(7))
		next := base
		var retracted []EdgeInsert
		left := 0
		for b := 0; b < 20; b++ {
			before := make(map[string]bool, inc.pool.len())
			for _, k := range inc.pool.keys {
				before[k] = true
			}
			var batch Batch
			for len(batch.Del) < 12 {
				e := r.Intn(g.NumEdges())
				if !g.EdgeAlive(e) {
					continue
				}
				dup := false
				for _, d := range batch.Del {
					dup = dup || (d.Src == g.Src(e) && d.Dst == g.Dst(e))
				}
				if dup {
					continue
				}
				vals := append([]graph.Value(nil), g.EdgeValues(e)...)
				batch.Del = append(batch.Del, EdgeDelete{Src: g.Src(e), Dst: g.Dst(e), Vals: vals})
				retracted = append(retracted, EdgeInsert{Src: g.Src(e), Dst: g.Dst(e), Vals: vals})
			}
			for i := 0; i < 12; i++ {
				if next < full.NumEdges() && i%2 == 0 {
					batch.Ins = append(batch.Ins, EdgeInsert{Src: full.Src(next), Dst: full.Dst(next), Vals: full.EdgeValues(next)})
					next++
				} else {
					batch.Ins = append(batch.Ins, retracted[0])
					retracted = retracted[1:]
				}
			}
			if _, _, err := inc.ApplyBatch(batch); err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
			checkUnionTable(t, "after a batch", inc, logs)
			for _, k := range inc.pool.keys {
				delete(before, k)
			}
			left += len(before)
		}
		ref, err := Mine(g, inc.Options())
		if err != nil {
			t.Fatal(err)
		}
		got := inc.Result().TopK
		if len(got) != len(ref.TopK) {
			t.Fatalf("final top-k has %d rules, a fresh mine %d", len(got), len(ref.TopK))
		}
		for i := range got {
			if got[i].GR.Key() != ref.TopK[i].GR.Key() || got[i].Supp != ref.TopK[i].Supp || got[i].Score != ref.TopK[i].Score {
				t.Fatalf("final rank %d: %v, a fresh mine %v", i, got[i], ref.TopK[i])
			}
		}
		reqs := make([][][]byte, len(logs))
		for s, l := range logs {
			reqs[s] = l.reqs
		}
		return reqs, left
	}

	a, left := run()
	if left == 0 {
		t.Fatal("no union entry left the table: the stream never exercised the swap-remove")
	}
	b, _ := run()
	sent := 0
	for s := range a {
		if len(a[s]) != len(b[s]) {
			t.Fatalf("shard %d: %d round-2 requests in one run, %d in the other", s, len(a[s]), len(b[s]))
		}
		for i := range a[s] {
			if !bytes.Equal(a[s][i], b[s][i]) {
				t.Fatalf("shard %d request %d differs between identical runs", s, i)
			}
		}
		sent += len(a[s])
	}
	if sent == 0 {
		t.Fatal("the stream sent no round-2 requests")
	}
}

// TestUnionTableMatchesReference drives the union table with random enter,
// count and drop operations at 1, 2, 3 and 65 shards (65 needs a two-word
// bitset) and compares it with a reference after every operation: the
// same entries in the same slots — the reference frees a slot by the same
// swap-remove — with the same per-shard counts and handles, and every
// mirror pointing at its entry's slot. A repeated enter must fail and
// leave the table unchanged.
func TestUnionTableMatchesReference(t *testing.T) {
	schema := &graph.Schema{
		Node: []graph.Attribute{{Name: "A", Domain: 4}, {Name: "B", Domain: 4}},
		Edge: []graph.Attribute{{Name: "W", Domain: 2}},
	}
	var universe []gr.GR
	for l := 0; l <= 4; l++ {
		for w := 0; w <= 2; w++ {
			for r := 1; r <= 4; r++ {
				g := gr.GR{R: gr.Descriptor{{Attr: 1, Val: graph.Value(r)}}}
				if l > 0 {
					g.L = gr.Descriptor{{Attr: 0, Val: graph.Value(l)}}
				}
				if w > 0 {
					g.W = gr.Descriptor{{Attr: 0, Val: graph.Value(w)}}
				}
				universe = append(universe, g)
			}
		}
	}
	// A reference entry: shard s tracks it under handle h[s] ≥ 0 with
	// counts c[s]. Shard s names universe[i] by handle i.
	type refEntry struct {
		key string
		h   []int32
		c   []metrics.Counts
	}
	for _, tc := range []struct {
		shards int
		m      metrics.Metric
	}{{1, metrics.NhpMetric}, {2, metrics.LiftMetric}, {3, metrics.NhpMetric}, {65, metrics.ConfMetric}} {
		t.Run(fmt.Sprintf("%d shards %s", tc.shards, tc.m.Name), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(tc.shards)))
			tab := newUnionTable(tc.shards, tc.m)
			for s := range tab.mirror {
				for range universe {
					tab.mirror[s].cand = append(tab.mirror[s].cand, -1)
				}
			}
			var ref []*refEntry
			picks := []int{0, tc.shards / 2, tc.shards - 1}
			moved, fixups := 0, 0
			for step := 0; step < 4000; step++ {
				s := picks[r.Intn(len(picks))]
				if r.Intn(4) == 0 {
					s = r.Intn(tc.shards)
				}
				h := int32(r.Intn(len(universe)))
				g := universe[h]
				at := -1
				for i, e := range ref {
					if e.key == g.Key() {
						at = i
					}
				}
				c := metrics.Counts{LWR: r.Intn(100), LW: r.Intn(100), Hom: r.Intn(100), R: r.Intn(100)}
				switch slot := tab.mirror[s].cand[h]; {
				case slot < 0 && r.Intn(3) > 0: // enter
					got, err := tab.enter(schema, g, s, h)
					if err != nil {
						t.Fatalf("step %d: enter %v on shard %d: %v", step, g, s, err)
					}
					tab.set(got, s, c)
					if at < 0 {
						at = len(ref)
						ref = append(ref, &refEntry{key: g.Key(), h: make([]int32, tc.shards), c: make([]metrics.Counts, tc.shards)})
						for i := range ref[at].h {
							ref[at].h[i] = -1
						}
					}
					if int(got) != at {
						t.Fatalf("step %d: %v entered slot %d, the reference slot %d", step, g, got, at)
					}
					ref[at].h[s], ref[at].c[s] = h, c
				case slot < 0: // nothing to do
				case r.Intn(5) == 0: // a repeated enter fails
					if _, err := tab.enter(schema, g, s, h); err == nil {
						t.Fatalf("step %d: shard %d entered %v twice", step, s, g)
					}
				case r.Intn(2) == 0: // new counts
					tab.set(slot, s, c)
					ref[at].c[s] = c
				default: // drop
					tab.drop(slot, s)
					ref[at].h[s] = -1
					if !slices.ContainsFunc(ref[at].h, func(h int32) bool { return h >= 0 }) {
						last := len(ref) - 1
						if at != last {
							moved++
							tracked := 0
							for _, h := range ref[last].h {
								if h >= 0 {
									tracked++
								}
							}
							if tracked > 1 {
								fixups++
							}
						}
						ref[at] = ref[last]
						ref = ref[:last]
					}
				}

				if err := tab.check(true, 0); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if tab.len() != len(ref) {
					t.Fatalf("step %d: %d slots, the reference %d", step, tab.len(), len(ref))
				}
				for i, e := range ref {
					slot := int32(i)
					if tab.keys[slot] != e.key {
						t.Fatalf("step %d: slot %d holds %s, the reference %s", step, i, tab.keys[slot], e.key)
					}
					for s, h := range e.h {
						if tab.handle[s][slot] != h || tab.has(slot, s) != (h >= 0) {
							t.Fatalf("step %d: slot %d shard %d: handle %d (tracked %v), the reference %d", step, i, s, tab.handle[s][slot], tab.has(slot, s), h)
						}
						if h < 0 {
							continue
						}
						want := e.c[s]
						got := metrics.Counts{LWR: int(tab.lwr[s][slot]), LW: int(tab.lw[s][slot])}
						if tc.m.NeedsHom {
							got.Hom = int(tab.hom[s][slot])
						} else {
							want.Hom = 0
						}
						if tc.m.NeedsR {
							got.R = int(tab.r[s][slot])
						} else {
							want.R = 0
						}
						if got != want {
							t.Fatalf("step %d: slot %d shard %d counts %+v, the reference %+v", step, i, s, got, want)
						}
					}
				}
			}
			if moved == 0 || tc.shards > 1 && fixups == 0 {
				t.Fatalf("%d swap-removes moved an entry, %d of them one several shards track: the sequence missed the mirror fix-ups", moved, fixups)
			}
		})
	}
}
