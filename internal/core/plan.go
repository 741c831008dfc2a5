package core

import (
	"fmt"
	"runtime"

	"grminer/internal/graph"
	"grminer/internal/store"
)

// Size-aware execution planning. Mining cost scales with the edge count and
// the attribute arity (every extra attribute multiplies the first-level
// fan-out and deepens the SFDF tree), and the parallel engine only pays off
// once each worker gets enough work to amortise goroutine spawn, the
// mine's bitmap index build, and the final merge. PlanFor turns those size features
// into a filled Options value so callers do not have to hand-tune
// Parallelism or descriptor caps per dataset.

const (
	// autoSeqWork is the crossover on edges×dims below which the parallel
	// engine's fixed overhead beats its win and the planner stays
	// sequential. One unit ≈ one edge visited once per search dimension at
	// the first level.
	//
	// Tuned against the measured BENCH_scaling.json crossover fields the CI
	// equivalence gate uploads: at |E|=7200, dims=12 (work ≈ 86k) the
	// static-floor engine never beat sequential (crossover_workers_static =
	// 0, speedup 0.55 at 2 workers), consistent with keeping the static
	// threshold at 2^18 ≈ 262k.
	autoSeqWork = 1 << 18
	// autoSeqWorkDynamic is the same crossover for dynamic-floor
	// (GRMiner(k)) runs. The same CI artifact measured
	// crossover_workers_dynamic = 2 at work ≈ 86k, when the ExactGenerality
	// checks of dynamic-floor mines still scanned the whole graph per
	// generalisation. They now intersect bitmaps, and the crossover held:
	// `grbench -exp scaling -pokec-nodes 2000 -pokec-deg 6 -minsupp 20
	// -procs 4 -auto` (|E| = 12000, work ≈ 144k, 2 vCPUs of a shared
	// 2.1 GHz x86-64 host) measured crossover_workers_dynamic = 2 in three
	// runs each before and after the change; the sequential dynamic mine
	// fell from 0.22–0.30 s to 0.08–0.11 s and 2 workers still ran it
	// 1.3–1.6× faster. 2^16 ≈ 65k keeps that crossover point on the
	// parallel side with margin.
	autoSeqWorkDynamic = 1 << 16
	// autoWorkPerWorker is the work each additional worker must bring to be
	// worth scheduling; the planner stops adding workers (before the CPU
	// budget is reached) when tasks get thinner than this.
	autoWorkPerWorker = autoSeqWork / 2
	// autoWideNodeAttrs / autoWideEdgeAttrs mark schemas wide enough that
	// unbounded descriptors explode the search space; beyond them the
	// planner caps descriptor sizes the user left at 0.
	autoWideNodeAttrs = 10
	autoWideEdgeAttrs = 8
	// autoCapLR / autoCapW are those caps (LHS and RHS node descriptors,
	// edge descriptors). Patterns longer than this are rarely
	// interpretable, which is what MaxL/MaxW/MaxR exist for.
	autoCapLR = 6
	autoCapW  = 4
)

// Plan is the execution strategy PlanFor selected for one input, kept as a
// value so CLIs can display the decision before mining.
type Plan struct {
	// Edges, Dims, and Procs are the inputs the decision was made from:
	// |E|, the search dimensionality 2·#AttrV+#AttrE, and the CPU budget.
	Edges int
	Dims  int
	Procs int
	// Tier names the size class: "small", "medium", or "large".
	Tier string
	// Parallelism is the chosen worker count (1 = sequential).
	Parallelism int
	// MaxL, MaxW, MaxR are the chosen descriptor caps (0 = unlimited);
	// user-set caps pass through unchanged.
	MaxL, MaxW, MaxR int
}

// PlanFor sizes a plan for mining st with opt. procs is the CPU budget
// (0 = runtime.NumCPU()). Fields the user already set in opt win: the plan
// never overrides a non-zero Parallelism, MaxL, MaxW, or MaxR.
func PlanFor(st *store.Store, procs int, opt Options) Plan {
	return PlanForSize(st.NumEdges(), st.Graph().Schema(), procs, opt)
}

// PlanForSize is PlanFor on explicit size features, usable without building
// a store (e.g. to preview a strategy for a dataset about to be generated).
func PlanForSize(edges int, schema *graph.Schema, procs int, opt Options) Plan {
	if procs <= 0 {
		procs = runtime.NumCPU()
	}
	dims := 2*len(schema.Node) + len(schema.Edge)
	work := int64(edges) * int64(dims)

	p := Plan{
		Edges: edges, Dims: dims, Procs: procs,
		Parallelism: opt.Parallelism,
		MaxL:        opt.MaxL, MaxW: opt.MaxW, MaxR: opt.MaxR,
	}
	seqWork := int64(autoSeqWork)
	if opt.DynamicFloor {
		seqWork = autoSeqWorkDynamic
	}
	switch {
	case work < seqWork:
		p.Tier = "small"
	case work < 64*autoSeqWork:
		p.Tier = "medium"
	default:
		p.Tier = "large"
	}

	// Wide schemas get descriptor caps regardless of tier: arity, not edge
	// count, is what makes the pattern space explode.
	if len(schema.Node) > autoWideNodeAttrs {
		if p.MaxL == 0 {
			p.MaxL = autoCapLR
		}
		if p.MaxR == 0 {
			p.MaxR = autoCapLR
		}
	}
	if len(schema.Edge) > autoWideEdgeAttrs && p.MaxW == 0 {
		p.MaxW = autoCapW
	}

	if p.Parallelism == 0 {
		if p.Tier == "small" || procs == 1 {
			p.Parallelism = 1
		} else {
			workers := int(work / autoWorkPerWorker)
			if workers > procs {
				workers = procs
			}
			if workers < 2 {
				workers = 2
			}
			p.Parallelism = workers
		}
	}
	return p
}

// Apply copies the plan into opt, filling only the fields the user left at
// zero so explicit settings always win.
func (p Plan) Apply(opt Options) Options {
	if opt.Parallelism == 0 {
		opt.Parallelism = p.Parallelism
	}
	if opt.MaxL == 0 {
		opt.MaxL = p.MaxL
	}
	if opt.MaxW == 0 {
		opt.MaxW = p.MaxW
	}
	if opt.MaxR == 0 {
		opt.MaxR = p.MaxR
	}
	return opt
}

// String renders the decision for CLI display.
func (p Plan) String() string {
	mode := "sequential"
	if p.Parallelism > 1 {
		mode = fmt.Sprintf("parallel ×%d", p.Parallelism)
	}
	return fmt.Sprintf("plan: |E|=%d dims=%d procs=%d tier=%s → %s, caps L/W/R=%d/%d/%d",
		p.Edges, p.Dims, p.Procs, p.Tier, mode, p.MaxL, p.MaxW, p.MaxR)
}
