// Package sched holds the one task runner of the project: every job that
// splits into independent tasks (the first-level subtrees of a mining walk,
// the columns of a bitmap index build) drains them through Run.
package sched

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// Run drains tasks 0..n-1 over up to width workers through an atomic index
// into a largest-first schedule by size — the cost of a task grows with its
// size, so starting big tasks early keeps the tail of the run filled with
// small ones — and runs each task with run(worker, i). Claiming a task is a
// single atomic add. Worker 0 is the calling goroutine, so a width of 1 (or
// a single task) starts no goroutine at all. The stable sort keeps index
// order for equal sizes. order is the caller's schedule scratch, returned
// for reuse.
func Run(width, n int, size func(i int) int, order []int32, run func(worker, i int)) []int32 {
	order = order[:0]
	for i := 0; i < n; i++ {
		order = append(order, int32(i))
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(size(int(b)), size(int(a))) })
	width = min(width, n)
	var next atomic.Int64
	drain := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(order) {
				return
			}
			run(w, int(order[i]))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain(w)
		}()
	}
	drain(0)
	wg.Wait()
	return order
}
