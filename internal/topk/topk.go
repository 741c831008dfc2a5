// Package topk maintains the bounded, ranked result list of Definition 5:
// GRs ordered by score (non-homophily preference) descending, then support
// descending, then canonical GR order ascending. The list exposes the score
// of its current k-th entry so GRMiner(k) can dynamically upgrade its
// pruning threshold (Algorithm 1, line 28).
package topk

import (
	"sort"

	"grminer/internal/gr"
)

// List is a bounded rank list. K == 0 means unbounded (used by the plain
// GRMiner variant and by post-processing baselines). The zero value is not
// usable; call New.
type List struct {
	k     int
	items []gr.Scored // sorted best-first
}

// New returns a list keeping the top k entries (k == 0: keep everything).
func New(k int) *List {
	if k < 0 {
		k = 0
	}
	return &List{k: k}
}

// Len returns the number of entries currently held.
func (l *List) Len() int { return len(l.items) }

// K returns the configured bound (0 = unbounded).
func (l *List) K() int { return l.k }

// Full reports whether the list holds k entries (always false if unbounded).
func (l *List) Full() bool { return l.k > 0 && len(l.items) >= l.k }

// Floor returns the score of the worst retained entry and true when the
// list is full; a candidate scoring strictly below the floor can never
// enter, and (by RHS anti-monotonicity) neither can its specialisations.
func (l *List) Floor() (float64, bool) {
	if !l.Full() {
		return 0, false
	}
	return l.items[len(l.items)-1].Score, true
}

// Consider offers a candidate; it returns true when the candidate was
// retained (possibly evicting the previous worst entry).
func (l *List) Consider(s gr.Scored) bool {
	pos := sort.Search(len(l.items), func(i int) bool { return gr.Less(s, l.items[i]) })
	if l.Full() && pos >= l.k {
		return false
	}
	l.items = append(l.items, gr.Scored{})
	copy(l.items[pos+1:], l.items[pos:])
	l.items[pos] = s
	if l.k > 0 && len(l.items) > l.k {
		l.items = l.items[:l.k]
	}
	return true
}

// Items returns the retained entries, best first. The slice is a copy.
func (l *List) Items() []gr.Scored {
	return append([]gr.Scored(nil), l.items...)
}

// ChangedFrom reports how many entries of cur are new or re-scored relative
// to prev (matched by GR identity; a retained GR whose score or support
// moved counts as changed). Streaming consumers use it to summarise the
// churn one ingested batch caused in a maintained top-k.
func ChangedFrom(prev, cur []gr.Scored) int {
	seen := make(map[string]gr.Scored, len(prev))
	for _, s := range prev {
		seen[s.GR.Key()] = s
	}
	changed := 0
	for _, s := range cur {
		old, ok := seen[s.GR.Key()]
		if !ok || old.Score != s.Score || old.Supp != s.Supp {
			changed++
		}
	}
	return changed
}

// MergeItems folds loose scored slices into a bound-k list. Merging groups
// that each saw a disjoint share of a candidate stream is exact even when
// each group was itself already cut to its own best k: any entry of the
// global top-k outranks the global k-th entry, so it can never have been
// cut from its group. Every engine's final ranking reduces to it.
func MergeItems(k int, groups ...[]gr.Scored) *List {
	out := New(k)
	for _, g := range groups {
		for _, s := range g {
			out.Consider(s)
		}
	}
	return out
}
