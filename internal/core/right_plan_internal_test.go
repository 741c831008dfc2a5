package core

import (
	"testing"

	"grminer/internal/dataset"
	"grminer/internal/gr"
	"grminer/internal/metrics"
	"grminer/internal/store"
)

// assertPanics fails unless f panics with want.
func assertPanics(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if got := recover(); got != want {
			t.Errorf("panic = %v, want %q", got, want)
		}
	}()
	f()
}

// RIGHT must never recurse below a group whose rows it did not move: a
// plan rule that skipped the rows of a group rightGroup does not cut would
// otherwise mine an empty partition and lose the subtree without a sign.
func TestRightGroupRefusesUnscatteredRows(t *testing.T) {
	st := store.Build(dataset.ToyDating())
	m := newMiner(st, Options{MinSupp: 1, Metric: metrics.NhpMetric})
	n := st.NumEdges()
	sr := m.scr.staticSR
	rc := &rctx{lw: n, sr: sr}
	top := len(sr) - 1
	rhs := gr.Descriptor(nil).With(sr[top], 1)
	assertPanics(t, "core: RIGHT recursion into unscattered rows", func() {
		m.rightGroup(rc, part{n: n}, 1, rhs, top)
	})
	// At position 0 no child extends the RHS, so the rows are never read.
	m.rightGroup(rc, part{n: n}, 1, gr.Descriptor(nil).With(sr[0], 1), 0)
}

// A bitmap descent over an empty partition is a caller bug: partBitmap
// sizes the bitmap it packs off the partition's last row.
func TestDataBitmapRefusesEmptyPartition(t *testing.T) {
	m := newMiner(store.Build(dataset.ToyDating()), Options{MinSupp: 1, Metric: metrics.NhpMetric})
	assertPanics(t, "core: bitmap descent over an empty partition", func() {
		m.partBitmap(&part{}, 1)
	})
}
