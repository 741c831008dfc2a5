package core

import (
	"bytes"
	"encoding/gob"
	"math/rand"
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

// checkUnionTable asserts the coordinator's union table invariants: every
// slot holds a live entry that knows its slot and is found under its key,
// the key map holds nothing else, every entry is tracked by some shard,
// every shard's handle mirror points at live entries that shard tracks, and
// each shard tracks exactly as many entries as its worker's pool holds.
func checkUnionTable(t *testing.T, label string, inc *IncrementalSharded, logs []*requestLog) {
	t.Helper()
	pool := inc.pool
	if len(pool.byKey) != len(pool.slots) {
		t.Fatalf("%s: %d keys for %d slots", label, len(pool.byKey), len(pool.slots))
	}
	tracked := make([]int, len(inc.workers))
	for i, u := range pool.slots {
		if u.slot != i || pool.byKey[u.gr.Key()] != u {
			t.Fatalf("%s: slot %d holds %v, which claims slot %d and is keyed to %p", label, i, u.gr, u.slot, pool.byKey[u.gr.Key()])
		}
		any := false
		for s, h := range u.have {
			if h {
				tracked[s]++
				any = true
			}
		}
		if !any {
			t.Fatalf("%s: slot %d (%v) is tracked by no shard", label, i, u.gr)
		}
	}
	for s, ht := range inc.mirror {
		handles := 0
		for h, u := range ht.cand {
			if u == nil {
				continue
			}
			handles++
			if u.slot < 0 || u.slot >= len(pool.slots) || pool.slots[u.slot] != u || !u.have[s] {
				t.Fatalf("%s: shard %d handle %d points at %v, which is not a live entry the shard tracks", label, s, h, u.gr)
			}
		}
		if handles != tracked[s] || handles != logs[s].pool.len() {
			t.Fatalf("%s: shard %d mirrors %d handles, the table tracks %d entries, the worker pool holds %d",
				label, s, handles, tracked[s], logs[s].pool.len())
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
			before := make(map[*shardCand]bool, len(inc.pool.slots))
			for _, u := range inc.pool.slots {
				before[u] = true
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
			for _, u := range inc.pool.slots {
				delete(before, u)
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
