package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"grminer/internal/gr"
	"grminer/internal/intern"
	"grminer/internal/metrics"
	"grminer/internal/store"
)

// referenceRecount is the row-matching pool recount the kernel must
// reproduce: every entry matched against every batch row, inserted rows
// first, then deleted ones, followed by the keep/drop gate in entry order
// with swap-remove revisit.
func referenceRecount(p *densePool, newRows, delRows []int32, ch *poolChanges) (recounted, dropped int) {
	if ch != nil {
		ch.touched, ch.demoted = ch.touched[:0], ch.demoted[:0]
	}
	totalE := p.st.NumEdges() - len(delRows)
	for i := 0; i < p.len(); {
		t := &p.entries[i]
		moved := referenceDelta(p.st, t, newRows, 1, p.opt.Metric.NeedsR)
		moved = referenceDelta(p.st, t, delRows, -1, p.opt.Metric.NeedsR) || moved
		t.c.E = totalE
		t.score = p.opt.Metric.Score(t.c)
		if moved {
			recounted++
		}
		if t.score < p.opt.MinScore || t.c.LWR < p.opt.MinSupp {
			if ch != nil {
				ch.demoted = append(ch.demoted, demotion{id: p.ids[i], c: t.c})
			}
			p.deleteAt(i)
			dropped++
			continue
		}
		if moved && ch != nil {
			ch.touched = append(ch.touched, p.ids[i])
		}
		i++
	}
	return recounted, dropped
}

// referenceDelta adds sign × (rows' contribution) to t's counts and reports
// whether any count moved: a row matching l ∧ w moves LW, and then LWR when
// it also matches r, or else Hom when its destination carries l's value on
// every β attribute; a row matching r moves R when the metric reads it.
func referenceDelta(st *store.Store, t *tracked, rows []int32, sign int, needR bool) bool {
	moved := false
	for _, e := range rows {
		if matchOn(st.LVal, e, t.gr.L) && matchOn(st.EVal, e, t.gr.W) {
			t.c.LW += sign
			moved = true
			if matchOn(st.RVal, e, t.gr.R) {
				t.c.LWR += sign
			} else if t.betaMask != 0 && referenceHom(st, e, t.gr.L, t.betaMask) {
				t.c.Hom += sign
			}
		}
		if needR && matchOn(st.RVal, e, t.gr.R) {
			t.c.R += sign
			moved = true
		}
	}
	return moved
}

// referenceHom reports whether row e's destination carries l's value on
// every attribute of betaMask.
func referenceHom(st *store.Store, e int32, l gr.Descriptor, betaMask uint64) bool {
	for _, c := range l {
		if betaMask&(1<<uint(c.Attr)) != 0 && st.RVal(e, c.Attr) != c.Val {
			return false
		}
	}
	return true
}

// clonePool copies p's entry tables, so two recounts can run from the same
// starting pool.
func clonePool(p *densePool) *densePool {
	c := *p
	c.entries = append([]tracked(nil), p.entries...)
	c.ids = append([]intern.GRID(nil), p.ids...)
	c.moved = append([]bool(nil), p.moved...)
	c.slots = append([]int32(nil), p.slots...)
	return &c
}

// TestRecountMatchesReference pins the pool recount to the row-matching
// reference: identical counts, scores, Recounted/Dropped, and touched and
// demoted sequences (the wire deltas follow their order), over batch
// sizes around the 64-row word boundary, for a metric of each count shape
// (nhp reads Hom, conf neither, lift R), under both gates — the single
// store's (MinSupp, MinScore) and a shard's (ShardMinSupp, −Inf). The
// schema has β ≠ ∅ and domains wider than the values drawn.
func TestRecountMatchesReference(t *testing.T) {
	g := generalityGraph(t, 11, false)
	st := store.Build(g)
	sizes := []int{0, 1, 63, 64, 65, 129}
	gates := []struct {
		name     string
		minSupp  int
		minScore float64
	}{
		{"single", 6, 0.3},
		{"shard", 3, math.Inf(-1)},
	}
	for _, m := range []metrics.Metric{metrics.NhpMetric, metrics.ConfMetric, metrics.LiftMetric} {
		for _, gate := range gates {
			opt := captureOptions(Options{Metric: m})
			opt.MinSupp, opt.MinScore = gate.minSupp, gate.minScore
			base := newDensePool(st, opt)
			mn := newMinerScr(st, opt, newMinerScratch(st.Dict()))
			mn.capture = base.capture
			walkAll(mn)
			if base.len() == 0 {
				t.Fatalf("%s/%s: empty pool", m.Name, gate.name)
			}
			r := rand.New(rand.NewSource(int64(len(m.Name) + len(gate.name))))
			var dropped, touched int
			for _, nIns := range sizes {
				for _, nDel := range sizes {
					newRows := randomRows(r, st, nIns)
					delRows := randomRows(r, st, nDel)
					got, want := clonePool(&base), clonePool(&base)
					var gotCh, wantCh poolChanges
					gr1, gd1 := got.recount(newRows, delRows, &gotCh)
					wr1, wd1 := referenceRecount(want, newRows, delRows, &wantCh)
					where := fmt.Sprintf("%s/%s +%d/−%d", m.Name, gate.name, nIns, nDel)
					if gr1 != wr1 || gd1 != wd1 {
						t.Fatalf("%s: recounted/dropped %d/%d, reference %d/%d", where, gr1, gd1, wr1, wd1)
					}
					comparePools(t, where, got, want)
					compareChanges(t, where, &gotCh, &wantCh)
					// The same recount with no sink must agree too.
					bare := clonePool(&base)
					if br, bd := bare.recount(newRows, delRows, nil); br != wr1 || bd != wd1 {
						t.Fatalf("%s: without a sink recounted/dropped %d/%d, reference %d/%d", where, br, bd, wr1, wd1)
					}
					comparePools(t, where+" (no sink)", bare, want)
					dropped += wd1
					touched += len(wantCh.touched)
				}
			}
			if dropped == 0 || touched == 0 {
				t.Fatalf("%s/%s: vacuous run: %d dropped, %d touched", m.Name, gate.name, dropped, touched)
			}
		}
	}
}

// randomRows draws n distinct live rows of st.
func randomRows(r *rand.Rand, st *store.Store, n int) []int32 {
	live := st.AllEdges()
	r.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	return live[:n]
}

func comparePools(t *testing.T, where string, got, want *densePool) {
	t.Helper()
	if got.len() != want.len() {
		t.Fatalf("%s: pool holds %d entries, reference %d", where, got.len(), want.len())
	}
	for i := range want.entries {
		g, w := &got.entries[i], &want.entries[i]
		if got.ids[i] != want.ids[i] {
			t.Fatalf("%s: entry %d is GR %d, reference %d", where, i, got.ids[i], want.ids[i])
		}
		if g.c != w.c || math.Float64bits(g.score) != math.Float64bits(w.score) {
			t.Fatalf("%s: entry %d (%v): counts %+v score %v, reference %+v score %v",
				where, i, w.gr, g.c, g.score, w.c, w.score)
		}
	}
	for id, s := range want.slots {
		if got.slots[id] != s {
			t.Fatalf("%s: slot of GR %d is %d, reference %d", where, id, got.slots[id], s)
		}
	}
	// The cross-chunk flags must be clear again, or they leak into the
	// next batch.
	if len(got.moved) != got.len() {
		t.Fatalf("%s: %d moved flags for %d entries", where, len(got.moved), got.len())
	}
	for i, m := range got.moved {
		if m {
			t.Fatalf("%s: moved flag %d left set", where, i)
		}
	}
}

func compareChanges(t *testing.T, where string, got, want *poolChanges) {
	t.Helper()
	if len(got.touched) != len(want.touched) || len(got.demoted) != len(want.demoted) {
		t.Fatalf("%s: %d touched, %d demoted; reference %d, %d",
			where, len(got.touched), len(got.demoted), len(want.touched), len(want.demoted))
	}
	for i := range want.touched {
		if got.touched[i] != want.touched[i] {
			t.Fatalf("%s: touched[%d] = %d, reference %d", where, i, got.touched[i], want.touched[i])
		}
	}
	for i := range want.demoted {
		if got.demoted[i] != want.demoted[i] {
			t.Fatalf("%s: demoted[%d] = %+v, reference %+v", where, i, got.demoted[i], want.demoted[i])
		}
	}
}
