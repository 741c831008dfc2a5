package main

import (
	"fmt"
	"sort"
	"time"
)

// samples is one latency distribution, in the order measured.
type samples []time.Duration

func (s samples) sorted() []time.Duration {
	out := append([]time.Duration(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle sample (the mean of the two middle ones for an
// even count); zero for no samples.
func (s samples) median() time.Duration {
	v := s.sorted()
	n := len(v)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return v[n/2]
	default:
		return (v[n/2-1] + v[n/2]) / 2
	}
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1).
func (s samples) percentile(q float64) time.Duration {
	v := s.sorted()
	if len(v) == 0 {
		return 0
	}
	i := int(q*float64(len(v))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(v) {
		i = len(v) - 1
	}
	return v[i]
}

// tailBeyond is how many samples must lie above a reported tail value.
const tailBeyond = 10

// tail returns the highest percentile that still has at least tailBeyond
// samples beyond it: the (tailBeyond+1)-th largest sample, labelled with its
// percentile rank ("p90" for 100 samples, "p99" for 1000). Below
// 2·tailBeyond+1 samples that percentile would fall under the median, so
// the median is returned, labelled "p50".
func (s samples) tail() (time.Duration, string) {
	v := s.sorted()
	n := len(v)
	i := n - tailBeyond - 1
	if i < n/2 {
		return s.median(), "p50"
	}
	return v[i], fmt.Sprintf("p%d", 100*(i+1)/n)
}

func (s samples) total() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

func meanFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var t float64
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}
