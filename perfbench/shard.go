package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"grminer/internal/core"
	"grminer/internal/graph"
	"grminer/internal/rpc"
)

// shardDaemons are in-process shard daemons, one worker slot each, on
// loopback listeners.
type shardDaemons struct {
	addrs []string
	lns   []net.Listener
	wg    sync.WaitGroup
	errs  []error
	bytes atomic.Int64 // fleet traffic, counted when traced
}

func startShardDaemons(n int, count bool) (*shardDaemons, error) {
	s := &shardDaemons{errs: make([]error, n)}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.stop()
			return nil, err
		}
		s.lns = append(s.lns, ln)
		s.addrs = append(s.addrs, ln.Addr().String())
		var served net.Listener = ln
		if count {
			served = countingListener{Listener: ln, bytes: &s.bytes}
		}
		s.wg.Add(1)
		go func(i int) {
			defer s.wg.Done()
			s.errs[i] = rpc.ServeShards(served, 1, nil)
		}(i)
	}
	return s, nil
}

// stop closes the listeners and waits for every daemon to return; open
// sessions end when their coordinator disconnects. Stopping twice is
// harmless.
func (s *shardDaemons) stop() error {
	for _, ln := range s.lns {
		ln.Close()
	}
	s.wg.Wait()
	for i, err := range s.errs {
		if err != nil {
			return fmt.Errorf("shard daemon %d: %w", i, err)
		}
	}
	return nil
}

// runShard is shard-churn: the sharded incremental engine over a fleet of
// loopback shard daemons, driven by one caller with balanced batches that
// keep |E| flat while tombstones, checkpoints and compactions build up.
func runShard(p params, seed int64, dur time.Duration, tr *tracer) (*result, error) {
	r := newResult()
	opt := miningOptions()
	// Half the edges of a graph generated at twice the degree are the
	// seed graph, the other half the insert pool.
	full, err := pokec(p.Nodes, 2*p.Degree, seed)
	if err != nil {
		return nil, err
	}
	base := int(float64(p.Nodes) * p.Degree)
	batches := stream(full, base, p.Ins, p.Del, streamLen(dur, p.MinOps), rand.New(rand.NewSource(seed)))
	r.logf("input: Pokec-like |V|=%d |E|=%d, %d precomputed batches of +%d/-%d, %d shards by source; mine nhp minSupp=%d minNhp=%.2f k=%d",
		full.NumNodes(), base, len(batches), p.Ins, p.Del, p.Shards, opt.MinSupp, opt.MinScore, opt.K)

	daemons, err := startShardDaemons(p.Shards, tr != nil)
	if err != nil {
		return nil, err
	}
	var counters shardCounters

	// Set-up is spec shipping, handshake and the seed offer.
	setup := newOpLog()
	var eng *core.IncrementalSharded
	var fleet *rpc.Fleet
	var g *graph.Graph // the graph eng owns
	closeEngine := func() {
		if eng != nil {
			eng.Close()
			fleet.Close()
			eng = nil
		}
	}
	// On an error return: a coordinator's sessions end when it closes, and
	// only then can the daemons stop.
	defer func() {
		closeEngine()
		daemons.stop()
	}()
	for i := 0; i < p.Setups; i++ {
		closeEngine()
		g, err = prefix(full, base)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		fleet = rpc.NewFleet(daemons.addrs, rpc.FleetOptions{})
		var build core.FleetBuilder = fleet
		if tr != nil {
			build = &tracedFleet{f: fleet, tr: tr, c: &counters}
		}
		setup.calibrate()
		t0 := time.Now()
		eng, err = core.NewIncrementalShardedFrom(g, opt, core.ShardOptions{Shards: p.Shards}, build)
		if err != nil {
			return nil, err
		}
		setup.add(i, time.Since(t0), false)
	}
	setup.end()

	ops := newOpLog()
	var stats []core.Stats
	var incStats []core.IncStats
	var perOp []shardOp
	ops.runLoop(dur, p.MinOps, func(i int) bool {
		if i >= len(batches) {
			return false
		}
		traced := tracedOp(tr, i)
		var a0 uint64
		var sp *openSpan
		var before shardOp
		if traced {
			before = shardOp{bytes: daemons.bytes.Load(), deltas: counters.deltas.Load(), grs: counters.countsGRs.Load()}
			a0 = totalAlloc()
			sp = tr.beginOp("core.ApplyBatch", layerCore)
		}
		t0 := time.Now()
		res, st, err := eng.ApplyBatch(batches[i])
		lat := time.Since(t0)
		sp.end()
		r.attempted++
		if err != nil {
			r.failed++
			r.logf("batch %d: %v", i, err)
			return true
		}
		ops.add(i, lat, traced)
		ops.edges += st.Edges + st.Deleted
		if traced {
			ops.allocMB = append(ops.allocMB, float64(totalAlloc()-a0)/1e6)
			stats = append(stats, res.Stats)
			incStats = append(incStats, st)
			perOp = append(perOp, shardOp{
				bytes:  daemons.bytes.Load() - before.bytes,
				deltas: counters.deltas.Load() - before.deltas,
				grs:    counters.countsGRs.Load() - before.grs,
			})
		}
		return true
	})
	heap := heapMB()
	r.logf("stream: %d batches (+%d/-%d each)", len(ops.wall), p.Ins, p.Del)
	r.setEndToEnd("ApplyBatch", setup, ops, heap)

	// Exactness: the maintained result equals a fresh single-store mine of
	// the coordinator's graph, and no shard was lost or replaced.
	want, err := core.Mine(g, eng.Options())
	if err != nil {
		return nil, fmt.Errorf("exactness reference: %w", err)
	}
	if err := sameTopK(eng.Result().TopK, want.TopK); err != nil {
		r.fail("sharded result differs from a fresh core.Mine: %v", err)
	}
	var retries, replacements int64
	for _, h := range eng.FleetHealth() {
		retries += h.Retries
		replacements += h.Replacements
		if !h.Live || h.Replacements != 0 {
			r.fail("shard %d at %s: live=%v replacements=%d (%s)", h.Shard, h.Addr, h.Live, h.Replacements, h.LastError)
		}
	}
	if r.correct {
		r.logf("exactness: final result (|E|=%d, %d rules) equals a fresh core.Mine; every shard live, 0 replacements", want.TotalEdges, len(want.TopK))
	}
	plan := eng.Plan()

	closeEngine()
	if err := daemons.stop(); err != nil {
		return nil, err
	}

	if tr != nil {
		traces, err := tr.traces()
		if err != nil {
			return nil, err
		}
		var ingest, straggler, counts, coord samples
		for _, o := range traces {
			per := o.durations("rpc.Ingest")
			ingest = append(ingest, per...)
			if len(per) > 0 {
				v := per.sorted()
				straggler = append(straggler, v[len(v)-1]-v[0])
			}
			counts = append(counts, o.wall("rpc.Counts"))
			coord = append(coord, time.Duration(o.self[layerCore]))
		}
		var deltas, grs, bytes []float64
		for _, o := range perOp {
			deltas = append(deltas, float64(o.deltas))
			grs = append(grs, float64(o.grs))
			bytes = append(bytes, float64(o.bytes))
		}
		var apply samples
		for _, o := range traces {
			apply = append(apply, time.Duration(o.root.End-o.root.Start))
		}
		r.layer["core.apply_ms"] = ms(apply.median())
		r.layer["rpc.ingest_ms"] = ms(ingest.median())
		r.layer["rpc.straggler_ms"] = ms(straggler.median())
		r.layer["rpc.counts_ms"] = ms(counts.median())
		r.layer["rpc.counts_grs"] = meanFloat(grs)
		r.layer["rpc.deltas"] = meanFloat(deltas)
		r.layer["rpc.bytes_per_batch"] = meanFloat(bytes)
		var blobs []float64
		for _, b := range counters.chkBytes {
			blobs = append(blobs, float64(b))
		}
		r.layer["rpc.checkpoint_ms"] = ms(counters.chkTimes.median())
		r.layer["rpc.checkpoint_bytes"] = meanFloat(blobs)
		r.layer["rpc.retries"] = float64(retries)
		r.layer["rpc.replacements"] = float64(replacements)
		r.layer["core.coord_self_ms"] = ms(coord.median())
		lo, hi := plan.Edges[0], plan.Edges[0]
		for _, e := range plan.Edges {
			lo, hi = min(lo, e), max(hi, e)
		}
		if lo > 0 {
			r.layer["core.shard_skew"] = float64(hi) / float64(lo)
		}
		r.logf("checkpoints: %d, median %.3f ms, mean blob %.0f B", len(counters.chkTimes), r.layer["rpc.checkpoint_ms"], r.layer["rpc.checkpoint_bytes"])
		r.setMineStats(stats)
		r.setIncStats(incStats)
		r.setLayerTimes(traces, ops)
	}
	return r, nil
}

// shardOp holds one traced batch's fleet counters.
type shardOp struct{ bytes, deltas, grs int64 }
