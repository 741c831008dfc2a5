package core

import (
	"fmt"

	"grminer/internal/graph"
	"grminer/internal/store"
)

// Size-aware descriptor caps. Every extra attribute multiplies the
// first-level fan-out and deepens the SFDF tree, so on wide schemas
// unbounded descriptors explode the search space. PlanFor turns the schema's
// width into descriptor caps so callers do not have to hand-tune them per
// dataset. Mining width needs no plan: MineStore fans out over GOMAXPROCS
// whenever the answer allows it.

const (
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

// Plan is the descriptor caps PlanFor selected for one input, kept as a
// value so CLIs can display the decision before mining.
type Plan struct {
	// Edges and Dims describe the input: |E| and the search
	// dimensionality 2·#AttrV+#AttrE.
	Edges int
	Dims  int
	// MaxL, MaxW, MaxR are the chosen descriptor caps (0 = unlimited);
	// user-set caps pass through unchanged.
	MaxL, MaxW, MaxR int
}

// PlanFor sizes a plan for mining st with opt. Caps the user already set in
// opt win: the plan never overrides a non-zero MaxL, MaxW, or MaxR.
func PlanFor(st *store.Store, opt Options) Plan {
	return PlanForSize(st.NumEdges(), st.Graph().Schema(), opt)
}

// PlanForSize is PlanFor on explicit size features, usable without building
// a store (e.g. to preview a strategy for a dataset about to be generated).
func PlanForSize(edges int, schema *graph.Schema, opt Options) Plan {
	p := Plan{
		Edges: edges, Dims: 2*len(schema.Node) + len(schema.Edge),
		MaxL: opt.MaxL, MaxW: opt.MaxW, MaxR: opt.MaxR,
	}
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
	return p
}

// Apply copies the plan into opt, filling only the fields the user left at
// zero so explicit settings always win.
func (p Plan) Apply(opt Options) Options {
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
	return fmt.Sprintf("plan: |E|=%d dims=%d → caps L/W/R=%d/%d/%d",
		p.Edges, p.Dims, p.MaxL, p.MaxW, p.MaxR)
}
