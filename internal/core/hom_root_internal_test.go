package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"grminer/internal/dataset"
	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
	"grminer/internal/store"
)

// homRootCases are the nhp settings of the RIGHT plan grid (the metrics
// that read the homophily effect), at MaxR 0, 1 and 2 and with the static
// RHS order on and off. MinScore 0 captures every examined GR, so every
// effect the walk reads is checked; 0.3 lets the plan's pre-score cut.
func homRootCases() []Options {
	var out []Options
	for _, minScore := range []float64{0, 0.3} {
		for _, maxR := range []int{0, 1, 2} {
			for _, static := range []bool{false, true} {
				out = append(out, Options{MinSupp: 1, MinScore: minScore, MaxR: maxR, StaticRHSOrder: static, Metric: metrics.NhpMetric})
			}
		}
	}
	return out
}

// homRootCheck counts the single-attribute homophily effects a check read,
// by the kind of root that recorded them.
type homRootCheck struct {
	t               *testing.T
	label           string
	counted, bitmap int
}

// wrap makes m's capture hook check every captured GR before passing it on.
func (hc *homRootCheck) wrap(m *miner) {
	next := m.capture
	m.capture = func(g gr.GR, c metrics.Counts, score float64) {
		hc.check(m, g, c)
		if next != nil {
			next(g, c, score)
		}
	}
}

// check compares, while the walk is inside the RHS subtree that examined g,
// g's homophily effect (when β has one attribute) and every effect the
// subtree's root recorded with a fresh scan of the subtree's base partition.
func (hc *homRootCheck) check(m *miner, g gr.GR, c metrics.Counts) {
	if len(g.L) == 0 && len(g.W) == 0 {
		// A root RIGHT task (walkTask) hangs off the full edge list with an
		// empty LHS, on a context of its own: no effect to check.
		return
	}
	t, rc := hc.t, &m.scr.rc
	scan := func(attr int) int {
		want, _ := rc.lhs.Get(attr)
		n := 0
		for _, e := range rc.base {
			if m.st.RVal(e, attr) == want {
				n++
			}
		}
		return n
	}
	for set := rc.hom1Set; set != 0; set &= set - 1 {
		a := bits.TrailingZeros64(set)
		if got, want := int(rc.hom1[a]), scan(a); got != want {
			t.Fatalf("%s: l=%v w=%v: recorded supp(l -w-> l[%d]) = %d, a scan of the base counts %d", hc.label, rc.lhs, rc.w, a, got, want)
		}
	}
	mask := betaMaskOf(m.schema, g.L, g.R)
	if bits.OnesCount64(mask) != 1 {
		return
	}
	a := bits.TrailingZeros64(mask)
	if want := scan(a); c.Hom != want {
		t.Fatalf("%s: %v: Hom = %d, a scan of the base counts %d", hc.label, g, c.Hom, want)
	}
	if rootIsBitmap(m) {
		hc.bitmap++
	} else {
		hc.counted++
	}
}

// rootIsBitmap reports whether the live RHS subtree's root descended by
// bitmaps. The base of a root at depth d lies in the row buffer of depth
// d-1 (the full edge list for the walk's own root), and a bitmap descent at
// depth d keeps the base's rows set in depth d's data bitmap until it
// returns.
func rootIsBitmap(m *miner) bool {
	base := m.scr.rc.base
	end := &base[:cap(base)][cap(base)-1]
	for d, buf := range m.scr.buffers {
		if cap(buf) > 0 && &buf[:cap(buf)][cap(buf)-1] == end {
			root := d + 1
			return root < len(m.scr.dataBMs) && m.scr.dataBMs[root].Has(base[0])
		}
	}
	return false
}

// TestRootHomophilyEffects: a single-attribute homophily effect comes from
// the histogram (or, below a bitmap descent, the bitmap intersection) the
// RHS subtree's root already made, not from a scan. Every such effect the
// walk reads must equal a fresh scan of the subtree's base partition, on
// the RIGHT plan grid's graphs, in the static mine (counting-sort roots)
// and in the incremental engine's witness-scoped re-mines over batches that
// insert and delete (bitmap roots where they pay off, counting-sort roots
// below deletions and elsewhere).
func TestRootHomophilyEffects(t *testing.T) {
	var static, scoped homRootCheck
	for _, seed := range []int64{0, 1, 2, 3, 4, 5, 25} {
		g := dataset.TinyHomophily(seed)
		for i, opt := range homRootCases() {
			label := fmt.Sprintf("seed %d case %d", seed, i)
			opt, err := opt.normalize()
			if err != nil {
				t.Fatal(err)
			}
			static.t, static.label = t, label+" static"
			m := newMiner(store.Build(g), opt)
			static.wrap(m)
			m.run()

			opt.K = 8
			inc, err := newIncremental(dataset.TinyHomophily(seed), opt, 1)
			if err != nil {
				t.Fatal(err)
			}
			scoped.t, scoped.label = t, label+" scoped"
			scoped.wrap(inc.fan.ws[0].m)
			r := rand.New(rand.NewSource(seed))
			for batch := 0; batch < 6; batch++ {
				if _, _, err := inc.ApplyBatch(homRootBatch(r, inc.g)); err != nil {
					t.Fatalf("%s: batch %d: %v", scoped.label, batch, err)
				}
			}
		}
	}
	t.Logf("effects checked: static mine %d; scoped re-mines %d under counting-sort roots, %d under bitmap roots", static.counted, scoped.counted, scoped.bitmap)
	if static.counted == 0 {
		t.Fatal("the static mine read no single-attribute homophily effect")
	}
	if scoped.counted == 0 || scoped.bitmap == 0 {
		t.Fatalf("scoped re-mines read %d effects under counting-sort roots and %d under bitmap roots; both kinds must occur", scoped.counted, scoped.bitmap)
	}
}

// homRootBatch draws a mixed batch over g: one to three deletions of live
// edges and one to four insertions.
func homRootBatch(r *rand.Rand, g *graph.Graph) Batch {
	var b Batch
	var live []int
	for e := 0; e < g.NumEdges(); e++ {
		if g.EdgeAlive(e) {
			live = append(live, e)
		}
	}
	r.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, e := range live[:min(len(live), 1+r.Intn(3))] {
		b.Del = append(b.Del, EdgeDelete{Src: g.Src(e), Dst: g.Dst(e), Vals: append([]graph.Value(nil), g.EdgeValues(e)...)})
	}
	for i := 1 + r.Intn(4); i > 0; i-- {
		b.Ins = append(b.Ins, EdgeInsert{Src: r.Intn(g.NumNodes()), Dst: r.Intn(g.NumNodes()), Vals: []graph.Value{graph.Value(r.Intn(3))}})
	}
	return b
}
