// The ShardWorker boundary: the narrow, wire-able contract one shard of a
// sharded mining deployment presents to its coordinator.
//
// PR 3 proved the offer/count split exact but kept both sides in one
// process, with the coordinator reaching into shard-local stores. This file
// makes the boundary explicit and transportable:
//
//   - WorkerSpec is the complete, self-contained description of one shard —
//     schema, node attribute rows, the shard's edges, and the effective
//     mining options in wire form (metric by name, not by function pointer).
//     A worker built from a spec owns a private graph and store; nothing is
//     shared with the coordinator, so the same WorkerState code serves both
//     the in-process workers and the shardd daemon behind internal/rpc.
//
//   - ShardSketch is the "coarse counts" half of the two-round protocol:
//     per-(attribute, value) first-level edge histograms. The coordinator
//     computes one per shard while partitioning (and keeps them fresh while
//     routing incremental batches), sums them into global singleton
//     supports, and derives each worker's OfferBound.
//
//   - OfferBound raises a shard's effective offer threshold. The pigeonhole
//     threshold t = ⌈minSupp/shards⌉ is tight for a lone shard, but global
//     knowledge prunes further: for a pattern g with condition set C mined
//     on shard i,
//
//     supp_global(g) ≤ min_{c∈C} H(c)                  (global rarity)
//     supp_global(g) ≤ s_i(g) + min_{c∈C} Σ_{j≠i} H_j(c) (others' capacity)
//
//     where H_j(c) is shard j's singleton count for condition c and
//     H = Σ_j H_j. A GR for which either bound dips below minSupp fails
//     Definition 5 condition (1) globally, so the worker drops it from its
//     offer. A qualifying GR is never dropped — its true global support
//     lower-bounds every bound — so the offer-union completeness argument
//     of shard.go survives: on the shard holding ≥ t of its support, a
//     qualifying GR is offered. The effective local threshold this induces,
//     max(t, minSupp − min_{c∈C} Σ_{j≠i} H_j(c)), rises exactly when
//     shards get thin — the enumeration blow-up BENCH_sharding.json
//     measured for the one-round protocol.
//
//   - Ingest moves incremental pool maintenance worker-side: a worker
//     ingests its routed batch slice into its private graph/store, delta-
//     recounts its own relaxed pool, re-mines the affected first-level
//     subtrees, and replies with the pool deltas. The pool is the single
//     store's kernel (pool.go: densePool keyed by the shard store's interned
//     GR ids, one recount) gated at (ShardMinSupp, −Inf). Those persistent
//     ids double as wire handles: the seed offer tags every candidate with
//     its handle, and an ingest reply names each delta by handle with its
//     counts in columns, shipping a GR by value only when it first joins
//     the pool. The coordinator never reads shard-local state; only routed
//     batches go down and handle-addressed deltas come back. (The
//     incremental pool is maintained WITHOUT the OfferBound filter: bounds
//     derived from a past edge set can rise as other shards grow, so a
//     seed-time cut could hide an entry a later batch promotes. The bound
//     is a batch-mine optimisation; the merge-side caps below recover most
//     of the saving for the maintained pool too.)
package core

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"

	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/intern"
	"grminer/internal/metrics"
)

// WireOptions is Options in a transport-friendly form: the metric travels by
// name, everything else by value. The zero Metric name means nhp.
//
// grlint:wire v5
type WireOptions struct {
	MinSupp            int
	MinScore           float64
	K                  int
	DynamicFloor       bool
	Metric             string
	MaxL, MaxW, MaxR   int
	NoGeneralityFilter bool
	IncludeTrivial     bool
	ExactGenerality    bool
	StaticRHSOrder     bool
}

// Wire converts Options to its wire form.
func (o Options) Wire() WireOptions {
	return WireOptions{
		MinSupp: o.MinSupp, MinScore: o.MinScore, K: o.K,
		DynamicFloor: o.DynamicFloor, Metric: o.Metric.Name,
		MaxL: o.MaxL, MaxW: o.MaxW, MaxR: o.MaxR,
		NoGeneralityFilter: o.NoGeneralityFilter,
		IncludeTrivial:     o.IncludeTrivial,
		ExactGenerality:    o.ExactGenerality,
		StaticRHSOrder:     o.StaticRHSOrder,
	}
}

// Options resolves the wire form back to Options (metric looked up by name).
func (w WireOptions) Options() (Options, error) {
	o := Options{
		MinSupp: w.MinSupp, MinScore: w.MinScore, K: w.K,
		DynamicFloor: w.DynamicFloor,
		MaxL:         w.MaxL, MaxW: w.MaxW, MaxR: w.MaxR,
		NoGeneralityFilter: w.NoGeneralityFilter,
		IncludeTrivial:     w.IncludeTrivial,
		ExactGenerality:    w.ExactGenerality,
		StaticRHSOrder:     w.StaticRHSOrder,
	}
	if w.Metric != "" {
		m, err := metrics.ByName(w.Metric)
		if err != nil {
			return o, err
		}
		o.Metric = m
	}
	return o, nil
}

// WorkerSpec is the self-contained description of one shard: everything a
// worker — in-process or a shardd daemon across a socket — needs to build
// its private graph and store. All fields are value types so the spec
// gob-encodes without registration.
//
// grlint:wire v1
type WorkerSpec struct {
	// NodeAttrs / EdgeAttrs reconstruct the schema.
	NodeAttrs []graph.Attribute
	EdgeAttrs []graph.Attribute
	// NumNodes and NodeVals (row-major NumNodes × len(NodeAttrs)) carry the
	// full node table: workers share the coordinator's node id space so
	// routed EdgeInsert batches need no translation.
	NumNodes int
	NodeVals []graph.Value
	// EdgeSrc/EdgeDst/EdgeVals (row-major × len(EdgeAttrs)) are the shard's
	// edges, in ascending global edge order.
	EdgeSrc  []int32
	EdgeDst  []int32
	EdgeVals []graph.Value
	// Opt carries the coordinator's effective (normalized) global options.
	Opt WireOptions
	// ShardMinSupp is the pigeonhole offer threshold t = ⌈MinSupp/Shards⌉.
	ShardMinSupp int
	// Index and Shards locate this worker in the layout.
	Index, Shards int
}

// buildWorkerSpec assembles the spec for shard idx of a partitioned graph.
func buildWorkerSpec(g *graph.Graph, opt Options, plan ShardPlan, part []int32, idx int) WorkerSpec {
	schema := g.Schema()
	nv, ne := len(schema.Node), len(schema.Edge)
	spec := WorkerSpec{
		NodeAttrs:    append([]graph.Attribute(nil), schema.Node...),
		EdgeAttrs:    append([]graph.Attribute(nil), schema.Edge...),
		NumNodes:     g.NumNodes(),
		NodeVals:     make([]graph.Value, g.NumNodes()*nv),
		EdgeSrc:      make([]int32, len(part)),
		EdgeDst:      make([]int32, len(part)),
		Opt:          opt.Wire(),
		ShardMinSupp: plan.ShardMinSupp,
		Index:        idx,
		Shards:       plan.Shards,
	}
	for n := 0; n < g.NumNodes(); n++ {
		copy(spec.NodeVals[n*nv:(n+1)*nv], g.NodeValues(n))
	}
	if ne > 0 {
		spec.EdgeVals = make([]graph.Value, len(part)*ne)
	}
	for i, e32 := range part {
		e := int(e32)
		spec.EdgeSrc[i] = int32(g.Src(e))
		spec.EdgeDst[i] = int32(g.Dst(e))
		if ne > 0 {
			copy(spec.EdgeVals[i*ne:(i+1)*ne], g.EdgeValues(e))
		}
	}
	return spec
}

// ShardCandidate is one offer crossing the coordinator/worker boundary: a
// GR together with its exact counts on the offering shard. Handle is the
// GR's id in the worker's maintained pool — the worker store's interned GR
// id, stable for the worker's lifetime and across both recovery paths
// (DESIGN.md §9). It is set on seeding offers and on IngestReply.Entered;
// bounded offers leave it zero, which gob does not encode.
//
// grlint:wire v2
type ShardCandidate struct {
	GR     gr.GR
	Counts metrics.Counts
	Handle intern.GRID
}

// IngestReply reports one worker's side of an incremental batch: its new
// edge count, the pool deltas, and the scoped re-mine's selectivity.
//
// The deltas are every pool entry whose counts changed, that the batch
// promoted into the pool, or that a deletion demoted below the shard
// threshold — the last with final counts under ShardMinSupp, which tell the
// coordinator the shard no longer tracks it. They travel by handle:
// Deltas[i] names the entry and the count columns, index-aligned with
// Deltas, carry its final counts. Hom is filled only when the metric
// NeedsHom and R only when it NeedsR (otherwise both stay empty); E is
// NumEdges for every delta. Entered lists, by value and in delta order,
// only the GRs that joined the pool this batch — the handles the
// coordinator does not yet mirror.
//
// Deltas is a plain []int32, not a []intern.GRID, because gob encodes
// only unnamed basic slices through its typed-slice fast path.
//
// grlint:wire v4
type IngestReply struct {
	NumEdges        int
	Deltas          []int32
	LWR, LW, Hom, R []int32
	Entered         []ShardCandidate
	Recounted       int
	SubtreesRemined int
	SubtreesTotal   int
	Stats           Stats
}

// addDelta appends one pool delta: its handle, and its counts to the
// columns the metric reads.
func (rep *IngestReply) addDelta(m metrics.Metric, id intern.GRID, c metrics.Counts) {
	rep.Deltas = append(rep.Deltas, int32(id))
	rep.LWR = append(rep.LWR, int32(c.LWR))
	rep.LW = append(rep.LW, int32(c.LW))
	if m.NeedsHom {
		rep.Hom = append(rep.Hom, int32(c.Hom))
	}
	if m.NeedsR {
		rep.R = append(rep.R, int32(c.R))
	}
}

// ShardWorker is the narrow contract one shard presents to the coordinator.
// Its methods are the whole offer/count/ingest/checkpoint surface,
// deliberately chatty-free so a remote transport (internal/rpc) pays one
// round trip per protocol round:
//
//   - Offer mines the shard's relaxed candidate pool (round 1). A non-nil
//     bound applies the count-then-verify prune; nil asks for the plain
//     pigeonhole pool and additionally seeds the worker's maintained pool
//     for later Ingest calls.
//   - Counts answers the batched round-2 exact-count query.
//   - Ingest applies a routed incremental batch slice (insertions and
//     retractions) worker-side.
//   - Checkpoint serializes the shard state for failover (Checkpointer).
//   - Close releases transport resources (a no-op in-process).
//
// Implementations need not be safe for concurrent calls; the coordinator
// issues at most one call per worker at a time (different workers are
// driven concurrently).
type ShardWorker interface {
	Checkpointer
	NumEdges() int
	Offer(bound *OfferBound) ([]ShardCandidate, Stats, error)
	Counts(grs []gr.GR) ([]metrics.Counts, error)
	Ingest(batch Batch) (IngestReply, error)
	Close() error
}

// WorkerBuilder turns a WorkerSpec into a live worker: in-process
// construction (InProcessWorkers) or a slot on a shardd daemon.
type WorkerBuilder func(spec WorkerSpec) (ShardWorker, error)

// Build implements FleetBuilder, so any WorkerBuilder func can stand in
// where a fleet is expected (without failover support).
func (b WorkerBuilder) Build(spec WorkerSpec) (ShardWorker, error) { return b(spec) }

// FleetBuilder places one shard worker per WorkerSpec. WorkerBuilder funcs
// implement it directly; fuller implementations (internal/rpc.Fleet) also
// implement RebuildingBuilder and gain mid-run failover.
type FleetBuilder interface {
	Build(spec WorkerSpec) (ShardWorker, error)
}

// RebuildingBuilder is a FleetBuilder that can also place a replacement
// worker for a shard whose original was lost mid-run (a torn connection, a
// dead daemon): Rebuild from the spec alone, RebuildRestore from the spec
// and the shard's latest checkpoint blob. Deployments built from one get
// their workers wrapped in replay supervisors: the coordinator keeps each
// shard's spec, latest blob and routed-batch log and, on worker loss,
// places a replacement and replays into it, then resumes the in-flight
// operation. See WorkerHealth and DESIGN.md §9 for the failure model.
type RebuildingBuilder interface {
	FleetBuilder
	Rebuild(spec WorkerSpec) (ShardWorker, error)
	RebuildRestore(spec WorkerSpec, blob []byte) (ShardWorker, error)
}

// InProcessWorkers is the WorkerBuilder running every shard in this process.
func InProcessWorkers(spec WorkerSpec) (ShardWorker, error) {
	return NewWorkerState(spec)
}

// ShardSketch is one shard's coarse count summary: for every attribute
// value, how many of the shard's edges carry it on the source side (L), the
// destination side (R), and the edge itself (W). Singleton supports bound
// every descriptor's support from above, which is all the two-round
// protocol needs from round 1.
//
// grlint:wire v1
type ShardSketch struct {
	Edges int
	// L and R are indexed [nodeAttr][value], W is [edgeAttr][value];
	// value ranges over 0..Domain (bucket 0, the null value, is unused by
	// descriptors but kept so values index directly).
	L, R [][]int
	W    [][]int
}

// newShardSketch allocates a zero sketch for the schema.
func newShardSketch(schema *graph.Schema) ShardSketch {
	sk := ShardSketch{
		L: make([][]int, len(schema.Node)),
		R: make([][]int, len(schema.Node)),
		W: make([][]int, len(schema.Edge)),
	}
	for a := range schema.Node {
		sk.L[a] = make([]int, schema.Node[a].Domain+1)
		sk.R[a] = make([]int, schema.Node[a].Domain+1)
	}
	for a := range schema.Edge {
		sk.W[a] = make([]int, schema.Edge[a].Domain+1)
	}
	return sk
}

// addEdge records one edge's attribute values.
func (sk *ShardSketch) addEdge(srcVals, dstVals, edgeVals []graph.Value) {
	sk.Edges++
	for a, v := range srcVals {
		sk.L[a][v]++
	}
	for a, v := range dstVals {
		sk.R[a][v]++
	}
	for a, v := range edgeVals {
		sk.W[a][v]++
	}
}

// removeEdge retracts one edge's attribute values; the sketch stays the
// exact singleton histogram of the shard's surviving edges, so every bound
// derived from it remains a valid upper bound under deletions.
func (sk *ShardSketch) removeEdge(srcVals, dstVals, edgeVals []graph.Value) {
	sk.Edges--
	for a, v := range srcVals {
		sk.L[a][v]--
	}
	for a, v := range dstVals {
		sk.R[a][v]--
	}
	for a, v := range edgeVals {
		sk.W[a][v]--
	}
}

// minSingle returns the smallest singleton count any of the GR's conditions
// has in this sketch — an upper bound on the GR's support on this shard.
func (sk *ShardSketch) minSingle(g gr.GR) int {
	m := sk.Edges
	for _, c := range g.L {
		if n := sk.L[c.Attr][c.Val]; n < m {
			m = n
		}
	}
	for _, c := range g.W {
		if n := sk.W[c.Attr][c.Val]; n < m {
			m = n
		}
	}
	for _, c := range g.R {
		if n := sk.R[c.Attr][c.Val]; n < m {
			m = n
		}
	}
	return m
}

// contributes reports whether this shard can contribute a non-zero count to
// any field the metric reads for g. LWR and Hom are bounded by LW, and LW
// by the smallest L∧W singleton count, so a zero there (an empty shard, or
// one missing a constrained value entirely) makes a round-2 fetch provably
// pointless — unless the metric also reads R, whose singleton bound is
// independent of LW.
func (sk *ShardSketch) contributes(m metrics.Metric, g gr.GR) bool {
	if sk.Edges == 0 {
		return false
	}
	lw := sk.Edges
	for _, c := range g.L {
		if n := sk.L[c.Attr][c.Val]; n < lw {
			lw = n
		}
	}
	for _, c := range g.W {
		if n := sk.W[c.Attr][c.Val]; n < lw {
			lw = n
		}
	}
	if lw > 0 {
		return true
	}
	if m.NeedsR {
		r := sk.Edges
		for _, c := range g.R {
			if n := sk.R[c.Attr][c.Val]; n < r {
				r = n
			}
		}
		if r > 0 {
			return true
		}
	}
	return false
}

// OfferBound carries the global knowledge a shard's round-1 offer is
// filtered with (see the package comment for the math). HL/HW/HR are the
// summed singleton supports over all shards; OL/OW/OR the sums over the
// *other* shards (H minus the worker's own sketch).
//
// grlint:wire v1
type OfferBound struct {
	MinSupp    int
	HL, HW, HR [][]int
	OL, OW, OR [][]int
}

// buildOfferBounds derives every worker's bound tables from the sketches:
// the global H tables are summed once and each worker's O tables are one
// subtraction, keeping construction O(shards × domain).
func buildOfferBounds(minSupp int, sketches []ShardSketch) []*OfferBound {
	sum := func(pick func(ShardSketch) [][]int) [][]int {
		first := pick(sketches[0])
		out := make([][]int, len(first))
		for a := range first {
			out[a] = make([]int, len(first[a]))
		}
		for _, sk := range sketches {
			t := pick(sk)
			for a := range t {
				for v, n := range t[a] {
					out[a][v] += n
				}
			}
		}
		return out
	}
	sub := func(tot, own [][]int) [][]int {
		out := make([][]int, len(tot))
		for a := range tot {
			row := make([]int, len(tot[a]))
			for v := range row {
				row[v] = tot[a][v] - own[a][v]
			}
			out[a] = row
		}
		return out
	}
	hl := sum(func(s ShardSketch) [][]int { return s.L })
	hw := sum(func(s ShardSketch) [][]int { return s.W })
	hr := sum(func(s ShardSketch) [][]int { return s.R })
	bounds := make([]*OfferBound, len(sketches))
	for i := range sketches {
		bounds[i] = &OfferBound{
			MinSupp: minSupp,
			HL:      hl, HW: hw, HR: hr,
			OL: sub(hl, sketches[i].L),
			OW: sub(hw, sketches[i].W),
			OR: sub(hr, sketches[i].R),
		}
	}
	return bounds
}

// check verifies that the bound's tables fit schema: one row per node
// attribute in HL/OL/HR/OR and per edge attribute in HW/OW, each Domain+1
// long. The tables arrive over the wire and cuts indexes them by
// descriptor attribute and value, so an ill-shaped bound fails the offer.
func (b *OfferBound) check(schema *graph.Schema) error {
	for _, t := range []struct {
		name  string
		rows  [][]int
		attrs []graph.Attribute
	}{
		{"HL", b.HL, schema.Node}, {"OL", b.OL, schema.Node},
		{"HR", b.HR, schema.Node}, {"OR", b.OR, schema.Node},
		{"HW", b.HW, schema.Edge}, {"OW", b.OW, schema.Edge},
	} {
		if len(t.rows) != len(t.attrs) {
			return fmt.Errorf("offer bound %s: %d rows for %d attributes", t.name, len(t.rows), len(t.attrs))
		}
		for a, row := range t.rows {
			if len(row) != t.attrs[a].Domain+1 {
				return fmt.Errorf("offer bound %s: attribute %d has %d entries, want %d", t.name, a, len(row), t.attrs[a].Domain+1)
			}
		}
	}
	return nil
}

// cuts reports whether g, with shard support localSupp, provably fails the
// global support threshold. Both bounds only shrink as g gains conditions
// and as its local support falls, so an offer walk that cut every subtree
// the bound rules out would offer exactly the GRs this keeps; the worker
// walks unbounded and filters its offers instead.
func (b *OfferBound) cuts(g gr.GR, localSupp int) bool {
	global, others := math.MaxInt, math.MaxInt
	scan := func(d gr.Descriptor, h, o [][]int) {
		for _, c := range d {
			global = min(global, h[c.Attr][c.Val])
			others = min(others, o[c.Attr][c.Val])
		}
	}
	scan(g.L, b.HL, b.OL)
	scan(g.W, b.HW, b.OW)
	scan(g.R, b.HR, b.OR)
	return global < b.MinSupp || localSupp+others < b.MinSupp
}

// WorkerState is the reference ShardWorker: a private graph holding the
// full node table and only this shard's edges, the compact store over it,
// and (once seeded by Offer(nil)) the maintained relaxed pool. It backs
// both the in-process deployment and the shardd daemon.
type WorkerState struct {
	// liveStore holds the private graph, its store, the relaxed pool —
	// gated at (ShardMinSupp, −Inf), empty until a seed Offer(nil), which
	// Ingest requires — and the walk state, and applies every slice.
	liveStore
	idx    int
	shards int
	seeded bool
	// changes collects each Ingest's pool deltas: the recount's report plus
	// every re-mine capture; entered the captures new to the pool.
	changes poolChanges
	entered []intern.GRID
	// mark is fillDeltas' bitset over the handle space; it is all zero
	// between calls.
	mark []uint64
	// counter is the round-2 Counts kernel's scratch, reused across calls.
	counter bitmapCounter
}

// NewWorkerState builds a live worker from its spec.
func NewWorkerState(spec WorkerSpec) (*WorkerState, error) {
	return newWorker(spec, spec.EdgeSrc, spec.EdgeDst, spec.EdgeVals, nil)
}

// newWorker is the one constructor behind NewWorkerState and
// NewWorkerStateFromCheckpoint: it checks the spec, resolves its options,
// builds the private graph — schema and node table from the spec, then the
// edges src/dst/vals (row-major, one row per edge) in order — and the store
// over it. A non-nil dict becomes the store's dictionary before anything
// interns. Shard stores always keep postings: Counts and the scoped
// re-mine both read their bitmaps.
func newWorker(spec WorkerSpec, src, dst []int32, vals []graph.Value, dict *intern.DictState) (*WorkerState, error) {
	schema, err := graph.NewSchema(spec.NodeAttrs, spec.EdgeAttrs)
	if err != nil {
		return nil, fmt.Errorf("core: worker spec schema: %w", err)
	}
	// Row counts are checked by division: a hostile NumNodes times the
	// attribute count can overflow to the table's length.
	nv, ne := len(schema.Node), len(schema.Edge)
	if len(spec.NodeVals)%nv != 0 || len(spec.NodeVals)/nv != spec.NumNodes {
		return nil, fmt.Errorf("core: worker spec: %d node values for %d nodes × %d attrs",
			len(spec.NodeVals), spec.NumNodes, nv)
	}
	if len(src) != len(dst) || (ne > 0 && (len(vals)%ne != 0 || len(vals)/ne != len(src))) {
		return nil, fmt.Errorf("core: shard %d: inconsistent edge arrays", spec.Index)
	}
	if spec.Index < 0 || spec.Index >= spec.Shards {
		return nil, fmt.Errorf("core: worker spec: index %d outside %d shards", spec.Index, spec.Shards)
	}
	if spec.ShardMinSupp < 1 {
		return nil, fmt.Errorf("core: worker spec: shard minSupp %d < 1", spec.ShardMinSupp)
	}
	opt, err := spec.Opt.Options()
	if err != nil {
		return nil, err
	}
	if opt, err = opt.normalize(); err != nil {
		return nil, err
	}
	g, err := graph.New(schema, spec.NumNodes)
	if err != nil {
		return nil, err
	}
	for n := 0; n < spec.NumNodes; n++ {
		if err := g.SetNodeValues(n, spec.NodeVals[n*nv:(n+1)*nv]...); err != nil {
			return nil, fmt.Errorf("core: worker spec node %d: %w", n, err)
		}
	}
	for i := range src {
		var ev []graph.Value
		if ne > 0 {
			ev = vals[i*ne : (i+1)*ne]
		}
		if _, err := g.AddEdge(int(src[i]), int(dst[i]), ev...); err != nil {
			return nil, fmt.Errorf("core: shard %d: edge %d: %w", spec.Index, i, err)
		}
	}
	// A shard's capture mines run at the lowered support threshold with no
	// score threshold; metric, descriptor caps, triviality and RHS-order
	// settings pass through so the per-shard enumeration space matches the
	// single-store walk.
	capOpt := captureOptions(opt)
	capOpt.MinSupp = spec.ShardMinSupp
	capOpt.MinScore = math.Inf(-1)
	live, err := newLiveStore(g, dict, capOpt, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, fmt.Errorf("core: shard %d: checkpoint dictionary: %w", spec.Index, err)
	}
	return &WorkerState{liveStore: live, idx: spec.Index, shards: spec.Shards}, nil
}

// NumEdges returns the shard's current edge count.
func (w *WorkerState) NumEdges() int { return w.st.NumEdges() }

// Metric returns the metric the worker counts for; Counts fills only the
// fields it reads.
func (w *WorkerState) Metric() metrics.Metric { return w.pool.opt.Metric }

// Close implements ShardWorker; in-process workers hold no transport.
func (w *WorkerState) Close() error { return nil }

// Offer mines the shard's relaxed candidate pool: every GR whose shard
// support reaches ShardMinSupp, with exact shard counts and no score
// filtering (shard.go's completeness argument). A non-nil bound drops the
// offers that provably fail the global support threshold (round 1 of the
// two-round protocol), each counted in PrunedGlobal; a nil bound also
// (re)seeds the maintained pool the incremental engine's Ingest path
// delta-updates. A bound whose tables do not fit the shard schema is
// rejected before any mining.
func (w *WorkerState) Offer(bound *OfferBound) ([]ShardCandidate, Stats, error) {
	if bound != nil {
		if err := bound.check(w.g.Schema()); err != nil {
			return nil, Stats{}, fmt.Errorf("core: worker %d: %w", w.idx, err)
		}
	}
	var out []ShardCandidate
	seedPool := bound == nil
	if seedPool {
		w.pool.reset()
		w.seeded = true
	}
	var stats Stats
	w.fan.walk(nil, nil, func(g gr.GR, c metrics.Counts, score float64) {
		if bound != nil && bound.cuts(g, c.LWR) {
			stats.PrunedGlobal++
			return
		}
		cand := ShardCandidate{GR: g, Counts: c}
		if seedPool {
			cand.Handle, _ = w.pool.upsert(g, c, score)
		}
		out = append(out, cand)
	}, nil, &stats)
	stats.ShardOffers = int64(len(out))
	return out, stats, nil
}

// Counts measures the given GRs' exact counts on this shard — the batched
// round-2 (verify) query for candidates other shards offered. Every GR is
// checked against the shard schema before any table is read, so a malformed
// request fails closed instead of indexing out of a posting table.
//
// Counts come from the store's live-exact postings bitmaps through the
// bitmapCounter kernel (bitmap_counter.go), filling only the fields the
// metric reads so gap-filled counts sum consistently with in-search capture
// counts. A GR with the same L∧W as the one before it reuses that
// intersection; the coordinator lists its queries in union-slot order,
// where about one GR in four needs a fresh one.
func (w *WorkerState) Counts(grs []gr.GR) ([]metrics.Counts, error) {
	schema := w.g.Schema()
	for i, g := range grs {
		if err := validGR(schema, g); err != nil {
			return nil, fmt.Errorf("core: worker %d: counts request GR %d: %w", w.idx, i, err)
		}
	}
	out := make([]metrics.Counts, len(grs))
	k, idx := &w.counter, w.st.Postings()
	for i, g := range grs {
		if i == 0 || !g.L.Equal(grs[i-1].L) || !g.W.Equal(grs[i-1].W) {
			k.intersectLW(idx, g)
		}
		out[i] = k.count(idx, schema, w.pool.opt.Metric, g)
	}
	return out, nil
}

// validGR checks that every condition of g names an attribute and a
// non-null in-domain value of the schema.
func validGR(schema *graph.Schema, g gr.GR) error {
	if err := g.L.Valid(schema.Node); err != nil {
		return fmt.Errorf("lhs: %w", err)
	}
	if err := g.W.Valid(schema.Edge); err != nil {
		return fmt.Errorf("edge: %w", err)
	}
	if err := g.R.Valid(schema.Node); err != nil {
		return fmt.Errorf("rhs: %w", err)
	}
	return nil
}

// Ingest applies one routed batch slice through the batch kernel
// (liveStore.apply) and replies with every pool entry the batch touched.
// The pool's gate has no score threshold, so a retraction only lowers
// supports and never promotes an entry: global score movement, the lift
// family's under a shrinking |E| included, is re-evaluated at merge time
// from summed counts. A retraction CAN demote an entry below ShardMinSupp;
// the reply still lists it, with its final counts, so the coordinator's
// union pool stays a faithful mirror of the worker pools. The reply is
// handle-addressed (see IngestReply): only entrants travel by value.
func (w *WorkerState) Ingest(batch Batch) (IngestReply, error) {
	if !w.seeded {
		return IngestReply{}, fmt.Errorf("core: worker %d: ingest before a seeding Offer", w.idx)
	}
	var stats Stats
	// Every capture joins the recount's touched ids as a delta: the
	// entries the re-mine updates in place directly, the entrants as they
	// are replayed.
	bs, err := w.apply(batch, &w.changes, func(g gr.GR, c metrics.Counts, score float64) {
		id, added := w.pool.upsert(g, c, score)
		w.changes.touched = append(w.changes.touched, id)
		if added {
			w.entered = append(w.entered, id)
		}
	}, &w.changes.touched, &stats)
	if err != nil {
		return IngestReply{}, fmt.Errorf("core: worker %d: %w", w.idx, err)
	}
	rep := IngestReply{
		NumEdges:        w.st.NumEdges(),
		Recounted:       bs.Recounted,
		SubtreesRemined: bs.SubtreesRemined,
		SubtreesTotal:   bs.SubtreesTotal,
		Stats:           stats,
	}
	w.fillDeltas(&rep)
	return rep, nil
}

// fillDeltas lists the batch's pool changes in rep: first every entry the
// recount demoted below the shard threshold, with its final counts (the
// coordinator then knows the shard no longer tracks it), then every
// tracked entry the recount moved or the re-mine captured, once each, in
// id order; the re-mine's entrants also go to Entered by value, in the
// same order. Counts are exact, so a demoted GR cannot be re-captured in
// the same batch, and every handle appears once. The touched ids are
// ordered and deduplicated by marking them in a bitset over the handle
// space and scanning the marked words, which the scan clears again.
func (w *WorkerState) fillDeltas(rep *IngestReply) {
	ch := &w.changes
	distinct := 0
	for _, id := range ch.touched {
		i, bit := int(id)>>6, uint64(1)<<(id&63)
		if i >= len(w.mark) {
			w.mark = append(w.mark, make([]uint64, i+1-len(w.mark))...)
		}
		if w.mark[i]&bit == 0 {
			w.mark[i] |= bit
			distinct++
		}
	}
	n := len(ch.demoted) + distinct
	rep.Deltas = make([]int32, 0, n)
	rep.LWR = make([]int32, 0, n)
	rep.LW = make([]int32, 0, n)
	if w.pool.opt.Metric.NeedsHom {
		rep.Hom = make([]int32, 0, n)
	}
	if w.pool.opt.Metric.NeedsR {
		rep.R = make([]int32, 0, n)
	}
	for _, d := range ch.demoted {
		rep.addDelta(w.pool.opt.Metric, d.id, d.c)
	}
	for i, word := range w.mark {
		for ; word != 0; word &= word - 1 {
			id := intern.GRID(i<<6 | bits.TrailingZeros64(word))
			if t, ok := w.pool.get(id); ok {
				rep.addDelta(w.pool.opt.Metric, id, t.c)
			}
		}
		w.mark[i] = 0
	}
	slices.Sort(w.entered)
	for _, id := range w.entered {
		if t, ok := w.pool.get(id); ok {
			rep.Entered = append(rep.Entered, ShardCandidate{GR: t.gr, Handle: id})
		}
	}
	w.entered = w.entered[:0]
}
