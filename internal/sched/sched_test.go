package sched

import (
	"slices"
	"sync/atomic"
	"testing"
)

// TestRunLargestFirst: at width 1 the calling goroutine runs every task
// once, largest first, equal sizes in index order, and the schedule comes
// back for reuse.
func TestRunLargestFirst(t *testing.T) {
	sizes := []int{3, 9, 1, 9, 5}
	var ran []int
	order := Run(1, len(sizes), func(i int) int { return sizes[i] }, make([]int32, 2), func(w, i int) {
		if w != 0 {
			t.Errorf("task %d ran on worker %d at width 1", i, w)
		}
		ran = append(ran, i)
	})
	if want := []int{1, 3, 4, 0, 2}; !slices.Equal(ran, want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
	if want := []int32{1, 3, 4, 0, 2}; !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestRunEveryTaskOnce: at any width every task runs exactly once, on a
// worker below the width, and no task at all when there is none.
func TestRunEveryTaskOnce(t *testing.T) {
	for _, width := range []int{1, 2, 4, 16} {
		for _, n := range []int{0, 1, 3, 50} {
			runs := make([]atomic.Int32, n)
			Run(width, n, func(int) int { return 0 }, nil, func(w, i int) {
				if w < 0 || w >= width || w >= n {
					t.Errorf("width %d, %d tasks: worker %d", width, n, w)
				}
				runs[i].Add(1)
			})
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("width %d: task %d of %d ran %d times", width, i, n, got)
				}
			}
		}
	}
}
