package main

import (
	"fmt"
	"runtime"
	"time"

	"grminer"
	"grminer/internal/core"
	"grminer/internal/gr"
	"grminer/internal/store"
)

// runMine is mine-pokec: one caller in a closed loop runs one-shot mines on
// a static local engine over the Pokec-like graph.
func runMine(p params, seed int64, dur time.Duration, tr *tracer) (*result, error) {
	r := newResult()
	opt := miningOptions()
	g, err := pokec(p.Nodes, p.Degree, seed)
	if err != nil {
		return nil, err
	}
	r.logf("input: Pokec-like |V|=%d |E|=%d; mine nhp minSupp=%d minNhp=%.2f k=%d", g.NumNodes(), g.NumEdges(), opt.MinSupp, opt.MinScore, opt.K)

	// Set-up is the store build the engine mines from.
	setup := newOpLog()
	var builds samples
	var eng *grminer.Engine
	for i := 0; i < p.Setups; i++ {
		setup.calibrate()
		t0 := time.Now()
		st := store.Build(g)
		built := time.Since(t0)
		e, err := grminer.OpenStore(st, grminer.EngineConfig{Options: opt})
		if err != nil {
			return nil, err
		}
		setup.add(i, time.Since(t0), false)
		builds = append(builds, built)
		eng = e
	}
	setup.end()

	ops := newOpLog()
	var first []gr.Scored
	var stats []core.Stats
	ops.runLoop(dur, p.MinOps, func(i int) bool {
		traced := tracedOp(tr, i)
		var alloc uint64
		var sp *openSpan
		if traced {
			alloc = totalAlloc()
			sp = tr.beginOp("core.MineStore", layerCore)
		}
		t0 := time.Now()
		res, err := eng.Mine()
		d := time.Since(t0)
		sp.end()
		r.attempted++
		if err != nil {
			r.failed++
			r.logf("mine %d: %v", i, err)
			return true
		}
		ops.add(i, d, traced)
		ops.edges += res.TotalEdges
		if traced {
			ops.allocMB = append(ops.allocMB, float64(totalAlloc()-alloc)/1e6)
			stats = append(stats, res.Stats)
		}
		if first == nil {
			first = res.TopK
		} else if err := sameTopK(res.TopK, first); err != nil {
			r.fail("mine %d differs from the first: %v", i, err)
		}
		return true
	})
	heap := heapMB()
	runtime.KeepAlive(eng)
	r.logf("stream: %d mines", len(ops.wall))
	r.setEndToEnd("mine", setup, ops, heap)

	// Exactness: the first mine equals the incremental engine's seed mine
	// over the same graph.
	g2, err := prefix(g, g.NumEdges())
	if err != nil {
		return nil, err
	}
	inc, err := core.NewIncremental(g2, opt)
	if err != nil {
		return nil, fmt.Errorf("exactness reference: %w", err)
	}
	if err := sameTopK(first, inc.Result().TopK); err != nil {
		r.fail("first mine differs from the incremental seed mine: %v", err)
	} else {
		r.logf("exactness: %d mines agree with each other and with the incremental seed mine (%d rules)", len(ops.wall), len(first))
	}

	if tr != nil {
		traces, err := tr.traces()
		if err != nil {
			return nil, err
		}
		var mine samples
		for _, o := range traces {
			mine = append(mine, o.durations("core.MineStore")...)
		}
		r.layer["store.build_ms"] = ms(builds.median())
		r.layer["core.mine_ms"] = ms(mine.median())
		r.setMineStats(stats)
		r.setLayerTimes(traces, ops)
	}
	return r, nil
}
