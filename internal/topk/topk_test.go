package topk

import (
	"math/rand"
	"testing"

	"grminer/internal/gr"
)

func scored(score float64, supp int, attr int) gr.Scored {
	return gr.Scored{GR: gr.GR{R: gr.D(attr, 1)}, Score: score, Supp: supp}
}

func TestBoundedInsertEvict(t *testing.T) {
	l := New(2)
	if _, ok := l.Floor(); ok {
		t.Error("empty list reported a floor")
	}
	if !l.Consider(scored(0.5, 10, 0)) || !l.Consider(scored(0.7, 10, 1)) {
		t.Fatal("inserts into non-full list rejected")
	}
	if !l.Full() {
		t.Error("list should be full")
	}
	if f, ok := l.Floor(); !ok || f != 0.5 {
		t.Errorf("floor = %v, %v; want 0.5", f, ok)
	}
	// Better candidate evicts the worst.
	if !l.Consider(scored(0.6, 10, 2)) {
		t.Error("better candidate rejected")
	}
	if f, _ := l.Floor(); f != 0.6 {
		t.Errorf("floor after evict = %v, want 0.6", f)
	}
	// Worse candidate bounces.
	if l.Consider(scored(0.1, 10, 3)) {
		t.Error("worse candidate accepted")
	}
	items := l.Items()
	if len(items) != 2 || items[0].Score != 0.7 || items[1].Score != 0.6 {
		t.Errorf("items = %v", items)
	}
}

func TestTieBreaks(t *testing.T) {
	l := New(1)
	l.Consider(scored(0.5, 10, 0))
	// Same score, higher support wins.
	if !l.Consider(scored(0.5, 20, 1)) {
		t.Error("higher-support tie rejected")
	}
	if l.Items()[0].Supp != 20 {
		t.Error("support tie-break not applied")
	}
	// Same score and support: smaller key wins. attr 0 < attr 1.
	if !l.Consider(scored(0.5, 20, 0)) {
		t.Error("smaller-key tie rejected")
	}
	if l.Consider(scored(0.5, 20, 5)) {
		t.Error("larger-key tie accepted")
	}
}

func TestUnbounded(t *testing.T) {
	l := New(0)
	for i := 0; i < 100; i++ {
		l.Consider(scored(float64(i%10)/10, i, i%7))
	}
	if l.Full() {
		t.Error("unbounded list reported full")
	}
	if l.Len() != 100 {
		t.Errorf("unbounded lost items: %d", l.Len())
	}
	items := l.Items()
	for i := 1; i < len(items); i++ {
		if gr.Less(items[i], items[i-1]) {
			t.Fatal("items not in rank order")
		}
	}
}

func TestNegativeK(t *testing.T) {
	l := New(-5)
	if l.K() != 0 {
		t.Errorf("negative k should clamp to 0, got %d", l.K())
	}
}

func TestItemsIsCopy(t *testing.T) {
	l := New(3)
	l.Consider(scored(0.5, 1, 0))
	items := l.Items()
	items[0].Score = 99
	if l.Items()[0].Score != 0.5 {
		t.Error("Items aliases internal storage")
	}
}

// Merging sharded bound-k lists must equal one list that saw every
// candidate — the exactness property the static mine's fan-out relies on
// when it merges its workers' bound-k lists.
func TestMergeEqualsSingleList(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(6)
		shards := make([]*List, 1+r.Intn(5))
		for i := range shards {
			shards[i] = New(k)
		}
		single := New(k)
		for i := 0; i < 80; i++ {
			s := scored(float64(r.Intn(6))/6, r.Intn(5), r.Intn(7))
			single.Consider(s)
			shards[r.Intn(len(shards))].Consider(s)
		}
		groups := make([][]gr.Scored, len(shards))
		for i, l := range shards {
			groups[i] = l.Items()
		}
		merged := MergeItems(k, groups...)
		got, want := merged.Items(), single.Items()
		if len(got) != len(want) {
			t.Fatalf("seed %d: merged %d items, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i].Score != want[i].Score || got[i].Supp != want[i].Supp || got[i].GR.Key() != want[i].GR.Key() {
				t.Fatalf("seed %d: rank %d: got %+v want %+v", seed, i, got[i], want[i])
			}
		}
	}
	if MergeItems(3, nil, New(3).Items()).Len() != 0 {
		t.Error("merge of empty lists not empty")
	}
}

// The bounded list must agree with sort-then-truncate on random inputs.
func TestMatchesSortTruncate(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(8)
		l := New(k)
		var all []gr.Scored
		for i := 0; i < 60; i++ {
			s := scored(float64(r.Intn(5))/5, r.Intn(4), r.Intn(6))
			all = append(all, s)
			l.Consider(s)
		}
		gr.Sort(all)
		want := all[:k]
		got := l.Items()
		if len(got) != k {
			t.Fatalf("seed %d: got %d items, want %d", seed, len(got), k)
		}
		for i := range want {
			// Scores must agree exactly; duplicate candidates make deeper
			// comparison ambiguous, so compare the full rank triple.
			if got[i].Score != want[i].Score || got[i].Supp != want[i].Supp || got[i].GR.Key() != want[i].GR.Key() {
				t.Fatalf("seed %d: rank %d: got %+v want %+v", seed, i, got[i], want[i])
			}
		}
	}
}

func TestChangedFrom(t *testing.T) {
	mk := func(attr int, score float64, supp int) gr.Scored {
		return gr.Scored{GR: gr.GR{R: gr.D(attr, 1)}, Score: score, Supp: supp}
	}
	prev := []gr.Scored{mk(0, 0.9, 10), mk(1, 0.8, 9), mk(2, 0.7, 8)}
	same := []gr.Scored{mk(0, 0.9, 10), mk(1, 0.8, 9), mk(2, 0.7, 8)}
	if n := ChangedFrom(prev, same); n != 0 {
		t.Errorf("identical lists: %d changed", n)
	}
	// One rescored, one evicted for a newcomer.
	cur := []gr.Scored{mk(0, 0.95, 11), mk(1, 0.8, 9), mk(3, 0.75, 7)}
	if n := ChangedFrom(prev, cur); n != 2 {
		t.Errorf("rescore+newcomer: %d changed, want 2", n)
	}
	if n := ChangedFrom(nil, cur); n != 3 {
		t.Errorf("from empty: %d changed, want 3", n)
	}
	if n := ChangedFrom(prev, nil); n != 0 {
		t.Errorf("to empty: %d changed, want 0", n)
	}
}
