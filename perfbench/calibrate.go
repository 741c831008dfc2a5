package main

import (
	"slices"
	"time"
)

// The benchmark shares its machine with other work, and the machine's speed
// drifts by tens of percent over tens of seconds. A run therefore times a
// fixed calibration kernel right before and after every operation, and the
// end-to-end timings are normalized to the kernel's nominal time:
//
//	normalized = wall × kernelNominal ÷ mean(kernel before, kernel after)
//
// On a machine running at nominal speed the two agree; when the machine
// slows down, operation and kernel slow down together and the normalized
// figure stays put. The wall-clock figures are printed beside them.

// kernelNominal is the kernel's time on the reference machine: 2 vCPUs of a
// shared 2.1 GHz x86-64 host, measured when quiet.
const kernelNominal = 25 * time.Millisecond

// kernel is a fixed, allocation-free mix of sorting and random memory
// traffic over a 4 MiB table, the two kinds of work mining does.
type kernel struct {
	keys, buf []uint32
	table     []uint32
}

func newKernel() *kernel {
	k := &kernel{keys: make([]uint32, 1<<15), buf: make([]uint32, 1<<15), table: make([]uint32, 1<<20)}
	x := uint32(2463534242)
	for i := range k.keys {
		// xorshift32: a fixed pseudo-random key set.
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		k.keys[i] = x
	}
	return k
}

// run times one pass of the kernel.
func (k *kernel) run() time.Duration {
	t0 := time.Now()
	for rep := 0; rep < 4; rep++ {
		copy(k.buf, k.keys)
		slices.Sort(k.buf)
		var h uint32
		for _, key := range k.buf {
			i := (key ^ h) & uint32(len(k.table)-1)
			k.table[i]++
			h = k.table[i]*2654435761 + key
		}
	}
	return time.Since(t0)
}
