package main

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"time"

	"grminer/internal/core"
	"grminer/internal/gr"
)

// tracedOp reports whether operation i of a traced run is traced. It
// follows the Thue–Morse sequence: half the operations are traced, and the
// choice never lines up with a periodic cost such as the checkpoint every
// 8 batches, so traced and untraced operations see the same work and their
// ratio is the tracing overhead.
func tracedOp(tr *tracer, i int) bool { return tr != nil && bits.OnesCount(uint(i))%2 == 1 }

// opLog collects a run's timed calls: operations, or set-ups. Every call
// is bracketed by calibration kernel runs (see calibrate.go).
type opLog struct {
	k     *kernel
	cal   []time.Duration // kernel time before call i; the last one follows the final call
	idx   []int           // call index of each successful call
	wall  samples         // wall time of each successful call
	edges int             // edges inserted plus retracted by the timed operations

	traced  []bool    // whether each successful call was traced
	allocMB []float64 // bytes allocated per traced operation, in MB
}

func newOpLog() *opLog { return &opLog{k: newKernel()} }

// calibrate times the kernel once; call it before every timed call.
func (l *opLog) calibrate() { l.cal = append(l.cal, l.k.run()) }

// end times the kernel after the last call and frees it, so the heap
// measured afterwards is the program's.
func (l *opLog) end() {
	l.calibrate()
	l.k = nil
}

// add records successful call i.
func (l *opLog) add(i int, d time.Duration, traced bool) {
	l.idx = append(l.idx, i)
	l.wall = append(l.wall, d)
	l.traced = append(l.traced, traced)
}

// normalized returns each successful call's time at nominal machine speed.
func (l *opLog) normalized() samples {
	out := make(samples, len(l.wall))
	for j, i := range l.idx {
		around := (l.cal[i] + l.cal[i+1]) / 2
		out[j] = time.Duration(float64(l.wall[j]) * float64(kernelNominal) / float64(around))
	}
	return out
}

// runLoop calls op(0), op(1), ... until dur has passed and at least minOps
// operations ran, or until op reports that its input is spent. The kernel
// runs before every operation and after the last.
func (l *opLog) runLoop(dur time.Duration, minOps int, op func(i int) (more bool)) {
	start := time.Now()
	defer l.end()
	for i := 0; time.Since(start) < dur || i < minOps; i++ {
		l.calibrate()
		if !op(i) {
			return
		}
	}
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// heapMB forces a collection and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// setEndToEnd fills the end-to-end metrics from the run's set-ups and
// operations, normalized to nominal machine speed.
func (r *result) setEndToEnd(what string, setup, ops *opLog, heap float64) {
	norm := ops.normalized()
	tail, label := norm.tail()
	wallTail, _ := ops.wall.tail()
	r.e2e["setup_s"] = setup.normalized().median().Seconds()
	r.e2e["op_p50_ms"] = ms(norm.median())
	r.e2e["op_tail_ms"] = ms(tail)
	r.e2e["edges_per_s"] = float64(ops.edges) / norm.total().Seconds()
	r.e2e["heap_mb"] = heap
	r.logf("machine speed: calibration kernel median %.3f ms over %d runs (nominal %v)", ms(samples(ops.cal).median()), len(ops.cal), kernelNominal)
	r.logf("%-13s %12s %12s", "", "normalized", "wall")
	r.logf("%-13s %12.4f %12.4f s    median of %d set-ups", "setup_s", r.e2e["setup_s"], setup.wall.median().Seconds(), len(setup.wall))
	r.logf("%-13s %12.3f %12.3f ms   median %s, n=%d", "op_p50_ms", r.e2e["op_p50_ms"], ms(ops.wall.median()), what, len(norm))
	r.logf("%-13s %12.3f %12.3f ms   %s %s, n=%d (highest percentile with ≥%d samples beyond)", "op_tail_ms", r.e2e["op_tail_ms"], ms(wallTail), label, what, len(norm), tailBeyond)
	r.logf("%-13s %12.1f %12.1f 1/s  %d edges", "edges_per_s", r.e2e["edges_per_s"], float64(ops.edges)/ops.wall.total().Seconds(), ops.edges)
	r.logf("%-13s %12.2f %12s MB   live heap after a forced GC at the end", "heap_mb", heap, "")
	r.logf("%-13s %12.4f %12s      %d failed of %d attempted", "fail_ratio", float64(r.failed)/float64(max(r.attempted, 1)), "", r.failed, r.attempted)
}

// opTrace is one traced operation: its spans and their split across layers.
type opTrace struct {
	root  span
	spans []span
	self  map[string]float64 // nanoseconds per layer
}

// traces splits every traced operation across layers, in operation order.
func (t *tracer) traces() ([]opTrace, error) {
	var out []opTrace
	for _, spans := range t.byOp() {
		root, self, err := attribute(spans)
		if err != nil {
			return nil, err
		}
		out = append(out, opTrace{root: root, spans: spans, self: self})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].root.Start < out[j].root.Start })
	return out, nil
}

// durations returns the duration of every span with the given name.
func (o opTrace) durations(name string) samples {
	var out samples
	for _, s := range o.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// wall returns the time at least one span with the given name was open.
func (o opTrace) wall(name string) time.Duration {
	var iv [][2]int64
	for _, s := range o.spans {
		if s.Name == name {
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, math.MinInt64
	for _, v := range iv {
		if v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return time.Duration(total)
}

// setLayerTimes fills the self-time and overhead metrics shared by every
// workload and checks that each operation's layer shares sum to its traced
// time.
func (r *result) setLayerTimes(ops []opTrace, log *opLog) {
	var worst float64
	for _, layer := range reportedLayers {
		var per []float64
		for _, o := range ops {
			per = append(per, o.self[layer]/1e6)
		}
		r.layer["self."+layer+"_ms"] = meanFloat(per)
	}
	for _, o := range ops {
		var sum float64
		for _, v := range o.self {
			sum += v
		}
		worst = math.Max(worst, math.Abs(sum-float64(o.root.End-o.root.Start)))
	}
	var traced, untraced samples
	for j, d := range log.normalized() {
		if log.traced[j] {
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
		}
	}
	if len(traced) > 0 && len(untraced) > 0 {
		r.layer["trace.overhead"] = float64(traced.median()) / float64(untraced.median())
	}
	r.layer["core.alloc_mb_per_op"] = meanFloat(log.allocMB)
	r.logf("traced operations: %d of %d; tracing overhead %.4f (median traced / median untraced operation, normalized)",
		len(traced), len(log.wall), r.layer["trace.overhead"])
	r.logf("self time per operation (mean): core %.3f ms, rpc %.3f ms, serve %.3f ms, unaccounted %.3f ms; largest |Σ layers − traced time| %.0f ns",
		r.layer["self.core_ms"], r.layer["self.rpc_ms"], r.layer["self.serve_ms"], r.layer["self.unaccounted_ms"], worst)
}

// setMineStats fills the miner's work counters, averaged per operation.
func (r *result) setMineStats(stats []core.Stats) {
	var ex, hom, part, blocked, cand []float64
	for _, s := range stats {
		ex = append(ex, float64(s.Examined))
		hom = append(hom, float64(s.HomScans))
		part = append(part, float64(s.PartitionCalls))
		blocked = append(blocked, float64(s.Blocked))
		cand = append(cand, float64(s.Candidates))
	}
	r.layer["core.examined"] = meanFloat(ex)
	r.layer["core.hom_scans"] = meanFloat(hom)
	r.layer["core.partition_calls"] = meanFloat(part)
	if c := meanFloat(cand); c > 0 {
		r.layer["core.blocked_ratio"] = meanFloat(blocked) / c
	}
}

// setIncStats fills the incremental engine's counters, averaged per batch.
func (r *result) setIncStats(stats []core.IncStats) {
	var rec, tracked, full, remined, total []float64
	for _, s := range stats {
		rec = append(rec, float64(s.Recounted))
		tracked = append(tracked, float64(s.Tracked))
		full = append(full, float64(s.FullRemines))
		remined = append(remined, float64(s.SubtreesRemined))
		total = append(total, float64(s.SubtreesTotal))
	}
	r.layer["core.recounted"] = meanFloat(rec)
	r.layer["core.tracked"] = meanFloat(tracked)
	r.layer["core.full_remines"] = meanFloat(full)
	if t := meanFloat(total); t > 0 {
		r.layer["core.remine_selectivity"] = meanFloat(remined) / t
	}
}

// sameTopK compares two ranked lists rule by rule: key, support and score.
func sameTopK(a, b []gr.Scored) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rules, want %d", len(a), len(b))
	}
	for i := range a {
		if a[i].GR.Key() != b[i].GR.Key() || a[i].Supp != b[i].Supp || a[i].Score != b[i].Score {
			return fmt.Errorf("rank %d is %v supp=%d score=%v, want %v supp=%d score=%v",
				i+1, a[i].GR, a[i].Supp, a[i].Score, b[i].GR, b[i].Supp, b[i].Score)
		}
	}
	return nil
}
