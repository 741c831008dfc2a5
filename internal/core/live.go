package core

import (
	"fmt"
	"math"
	"slices"

	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/intern"
	"grminer/internal/metrics"
	"grminer/internal/store"
)

// liveStore is what both live engines maintain — the owned graph, the
// store over it with postings, the pool, the capture-walk fan-out and the
// witness table — and apply is the one batch kernel over it. The single
// store (Incremental) and each shard worker (WorkerState) embed it; they
// differ only in the pool's gate, (MinSupp, MinScore) against
// (ShardMinSupp, −Inf), and in what they make of a batch. pool, fan, wit
// and scr are the steady-state allocation set (DESIGN.md §7). The owner is
// the store's exclusive writer, so single-owner use holds.
type liveStore struct {
	g    *graph.Graph
	st   *store.Store
	pool densePool
	fan  *fanOut
	wit  witnesses
	// scr is the fan-out's worker 0 scratch (private dictionary); the
	// owner may borrow it between walks.
	scr *minerScratch
}

// newLiveStore builds the store over g, with dict as its dictionary when
// non-nil, turns on postings, and creates an empty pool gated by the
// capture options gate and a fan-out of width workers.
func newLiveStore(g *graph.Graph, dict *intern.DictState, gate Options, width int) (liveStore, error) {
	st := store.Build(g)
	if dict != nil {
		if err := st.RestoreDict(*dict); err != nil {
			return liveStore{}, err
		}
	}
	st.EnablePostings()
	scr := privateScratch(st)
	return liveStore{g: g, st: st, pool: newDensePool(st, gate), fan: newFanOut(st, gate, scr, width), scr: scr}, nil
}

// apply applies one batch. It validates the whole batch first — a
// malformed insert or an unmatched retraction errors with nothing changed —
// then appends, recounts the pool (refilling a non-nil ch), collects the
// witnesses and tombstones the retractions (recount and witnesses read the
// doomed rows, so both go first), and either re-mines the witnessed
// subtrees or rebuilds the pool. The re-mine updates tracked captures in
// place, their ids appended to a non-nil touched, and hands the rest to
// emit, which must add them to the pool. The choice follows from the
// pool's gate alone:
//
//   - with no score threshold (MinScore −Inf) deletions only lower
//     supports, so deleted rows are no witnesses and every metric is scoped;
//   - under a score gate the scoped path needs DeltaSafe and MinScore ≥ 0,
//     and DeleteSafe when the batch deletes; anything else rebuilds.
func (l *liveStore) apply(b Batch, ch *poolChanges, emit func(gr.GR, metrics.Counts, float64), touched *[]intern.GRID, stats *Stats) (IncStats, error) {
	for i, e := range b.Ins {
		if err := l.g.CheckEdge(e.Src, e.Dst, e.Vals...); err != nil {
			return IncStats{}, fmt.Errorf("core: batch edge %d: %w", i, err)
		}
	}
	delRows, err := resolveDeletes(l.st, b.Del)
	if err != nil {
		return IncStats{}, err
	}
	for _, e := range b.Ins {
		if _, err := l.g.AddEdge(e.Src, e.Dst, e.Vals...); err != nil {
			// Unreachable after CheckEdge; kept as an invariant guard.
			return IncStats{}, err
		}
	}
	newRows := l.st.Append()

	bs := IncStats{Batches: 1, Edges: len(b.Ins), Deleted: len(delRows)}
	gate := l.pool.opt
	ungated := math.IsInf(gate.MinScore, -1)
	scoped := ungated || gate.Metric.DeltaSafe && gate.MinScore >= 0 && (len(delRows) == 0 || gate.Metric.DeleteSafe)
	if scoped {
		bs.Recounted, bs.Dropped = l.pool.recount(newRows, delRows, ch)
		witDel := delRows
		if ungated {
			witDel = nil
		}
		collectWitnessesInto(&l.wit, l.st, newRows, witDel)
		if err := l.tombstone(delRows); err != nil {
			return IncStats{}, err
		}
		bs.SubtreesRemined, bs.SubtreesTotal = remineAffectedSubtrees(l.fan, &l.pool, &l.wit, emit, touched, stats)
	} else if len(newRows) > 0 || len(delRows) > 0 {
		if err := l.tombstone(delRows); err != nil {
			return IncStats{}, err
		}
		l.rebuild(stats)
		bs.FullRemines = 1
	}
	return bs, nil
}

// tombstone removes the resolved rows from the graph and the store (which
// may compact and renumber rows).
func (l *liveStore) tombstone(delRows []int32) error {
	for _, row := range delRows {
		if err := l.g.RemoveEdge(int(l.st.EdgeID(row))); err != nil {
			return fmt.Errorf("core: retract row %d: %w", row, err)
		}
	}
	return l.st.RemoveEdges(delRows)
}

// rebuild re-seeds the pool with a full capture walk, reusing the pool's
// and the walk's capacity.
func (l *liveStore) rebuild(stats *Stats) {
	l.pool.reset()
	l.fan.walk(nil, nil, l.pool.capture, nil, stats)
}

// resolveDeletes maps each retraction to a distinct live store row matching
// its endpoints and edge values exactly, by one pass over the live rows. An
// unmatched retraction is an error (the caller rejects the batch unmutated).
func resolveDeletes(st *store.Store, dels []EdgeDelete) ([]int32, error) {
	ne := len(st.Graph().Schema().Edge)
	return resolveRetractions(dels, ne, st.NumRows(), func(e int) (int, int, bool) {
		if !st.Alive(int32(e)) {
			return 0, 0, false
		}
		return int(st.SrcNode(int32(e))), int(st.DstNode(int32(e))), true
	}, func(e, a int) graph.Value {
		return st.EVal(int32(e), a)
	})
}

// witnesses is the scoped re-mine's batch: every inserted edge, and under a
// score gate every deleted edge, with its values. Each node of the scoped
// walk carries the set of witnesses that still match its descriptor — an
// inserted edge while it matches l ∧ w ∧ r, a deleted edge while it matches
// l ∧ w — and a descent whose set empties holds no pool entrant (see the
// package comment). The table is O(batch × attributes) and refilled in
// place by every batch.
type witnesses struct {
	// edges lists the witnesses' graph edge ids, inserted edges first:
	// witnesses [0, nIns) are inserted and [nIns, n) deleted. Sets list
	// ids ascending, so a set holds a deletion iff its last id is at least
	// nIns.
	edges []int32
	nIns  int
	// vals holds stride values per witness (filled by gather): its nv
	// source-node (LHS) values, its nv destination-node (RHS) values, then
	// its edge values — so a (side, attribute) pair is one column index
	// (colL, colR, colW).
	vals       []graph.Value
	nv, stride int
}

func (w *witnesses) colL(attr int) int { return attr }
func (w *witnesses) colR(attr int) int { return w.nv + attr }
func (w *witnesses) colW(attr int) int { return 2*w.nv + attr }

func (w *witnesses) val(i int32, col int) graph.Value { return w.vals[int(i)*w.stride+col] }

// hasDelete reports whether the ascending set holds a deleted edge.
func (w *witnesses) hasDelete(set []int32) bool {
	return len(set) > 0 && int(set[len(set)-1]) >= w.nIns
}

// inserted returns the prefix of the ascending set that holds its inserted
// edges.
func (w *witnesses) inserted(set []int32) []int32 {
	for w.hasDelete(set) {
		set = set[:len(set)-1]
	}
	return set
}

// keeps reports whether witness i stays in a set extended by val in col: it
// carries val there, or it is a deleted edge and col is an RHS column —
// deletion entrants are carried on l ∧ w only, so R extensions pass them.
func (w *witnesses) keeps(i int32, col int, val graph.Value) bool {
	if int(i) >= w.nIns && col >= w.nv && col < 2*w.nv {
		return true
	}
	return w.val(i, col) == val
}

// collectWitnessesInto records the batch's inserted rows and doomed rows
// into the engine's reusable witness table by graph edge id. It must run
// before the doomed rows tombstone: RemoveEdges may compact and renumber
// rows, while edge ids are stable and the graph keeps a removed edge's
// endpoints and values readable.
func collectWitnessesInto(w *witnesses, st *store.Store, newIDs, delRows []int32) {
	w.nIns = len(newIDs)
	w.edges = slices.Grow(w.edges[:0], len(newIDs)+len(delRows))
	for _, rows := range [2][]int32{newIDs, delRows} {
		for _, e := range rows {
			w.edges = append(w.edges, st.EdgeID(e))
		}
	}
}

// gather fills the value table from g (the store's graph).
func (w *witnesses) gather(g *graph.Graph) {
	schema := g.Schema()
	nv, ne := len(schema.Node), len(schema.Edge)
	w.nv, w.stride = nv, 2*nv+ne
	w.vals = slices.Grow(w.vals[:0], len(w.edges)*w.stride)
	for _, id := range w.edges {
		e := int(id)
		w.vals = append(w.vals, g.NodeValues(g.Src(e))...)
		w.vals = append(w.vals, g.NodeValues(g.Dst(e))...)
		w.vals = append(w.vals, g.EdgeValues(e)...)
	}
}

// rightSubtreeAffected decides whether a root RIGHT subtree with n live
// edges in its partition can hold a deletion entrant. Every deleted edge is
// a witness there — the subtree's GRs have empty l ∧ w, which every edge
// matches — but a sharp score bound rules most subtrees out: every GR in
// the subtree has LW = |E|, Hom = 0 (empty LHS ⇒ empty β, so nhp
// degenerates to conf throughout), and LWR ≤ n, and every DeleteSafe metric
// is non-decreasing in LWR at fixed LW, so Score({LWR: n, LW: E, E: E})
// bounds every score below the subtree from above. A subtree whose bound
// misses minScore holds no condition-(1) candidate at all, so its deleted
// witnesses are dropped — the saving that keeps deletion batches from
// re-walking the whole RIGHT block.
func rightSubtreeAffected(opt Options, n, liveE int) bool {
	bound := opt.Metric.Score(metrics.Counts{LWR: n, LW: liveE, E: liveE})
	return bound >= opt.MinScore
}

// remineAffectedSubtrees re-mines exactly the first-level SFDF subtrees
// some batch witness reaches, on f's workers: the full capture walk (the
// same planner, so every GR belongs to exactly one subtree) restricted by
// witnesses. Candidates the pool tracks are updated in place, their ids
// appended to a non-nil touched; every other one is replayed through emit
// in the one-worker walk's order (see fanOut). First-level partitions come
// straight off the store's postings, and every deeper descent narrows its
// witness set (miner.wit), pruning descents it empties. That is exact at
// every depth: an entrant's witness matches the entrant's descriptor, so
// it matches every ancestor's. The batch kernel is its one caller; scoped
// re-mining is only sound when the metric cannot raise a score outside
// the witnessed subtrees.
//
// grlint:requires DeltaSafe DeleteSafe
func remineAffectedSubtrees(f *fanOut, pool *densePool, wit *witnesses, emit func(gr.GR, metrics.Counts, float64), touched *[]intern.GRID, stats *Stats) (remined, total int) {
	wit.gather(f.st.Graph())
	return f.walk(wit, pool, emit, touched, stats)
}
