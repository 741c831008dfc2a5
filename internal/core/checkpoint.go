package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/intern"
	"grminer/internal/metrics"
)

// CheckpointVersion is the checkpoint blob format generation. A blob is
// opaque to everything between the worker that wrote it and the worker that
// restores it — the supervisor and the rpc layer ship it as raw bytes — so
// the version lives inside the blob, not in the wire protocol: bumping it
// does not bump the rpc version, and a restore of a foreign generation fails
// closed (the supervisor then marks the shard down rather than guessing).
// Version 2 serializes the intern dictionary as id-ordered slices instead
// of maps and the pool in entry order, so blobs are deterministic.
// Version 3 writes the pool and the dictionary's GR table as flat columns
// (poolColumns, intern.DictState) instead of slices of structs and arrays,
// which gob walks value by value at every nesting level.
// Version 4 carries the live edges, the dictionary and the pool only: the
// restore rebuilds the compact store from the edges, so neither the dead
// edges nor a second copy of the store's arrays travel.
const CheckpointVersion = 4

// Checkpointer serializes a worker's full shard state into an opaque
// versioned blob; every ShardWorker implements it. Supervisors checkpoint
// every CheckpointInterval acknowledged batches and truncate their replay
// logs to the post-checkpoint suffix (DESIGN.md §9): recovery becomes
// RebuildRestore + replay-at-most-interval-batches instead of
// replay-everything. The blob omits what the shard's WorkerSpec already
// carries (schema, node table); it holds the live edges, the intern
// dictionary and the maintained pool.
type Checkpointer interface {
	Checkpoint() ([]byte, error)
}

// checkpointImage is the serialized form of a WorkerState. The worker's
// private graph is persisted as its live edges in graph id order; the node
// table and schema come from the spec at restore time, and the compact
// store, a pure function of the edges, is rebuilt rather than shipped. The
// restored worker is therefore equivalent, not array-identical: its graph
// edge ids and store row ids differ from the original's, but no reply
// exposes either — deletions resolve by value, and the pool travels by
// interned id, which the dictionary keeps. Among edges that share a
// source, both workers keep rows in graph id order, so a retraction of
// duplicate edges claims the same one on each, and the next blob lists the
// same edges in the same order.
type checkpointImage struct {
	Version       int
	Index, Shards int
	NumNodes      int

	EdgeSrc  []int32
	EdgeDst  []int32
	EdgeVals []graph.Value

	Dict intern.DictState

	Seeded bool
	Pool   poolColumns
}

// poolColumns is the maintained pool in entry order: the GRs in gr's
// column layout and one int32 column per maintained count. Hom rides only
// when the metric reads it and R only when it reads R — the fields the
// pool maintains, as in IngestReply. E does not ride at all: every entry's
// E is the shard's live edge count (recount sets it so each batch), which
// the restore reads off the restored store.
type poolColumns struct {
	GRs             gr.Columns
	LWR, LW, Hom, R []int32
}

// columns lays the pool out as poolColumns, in entry order.
func (p *densePool) columns() (poolColumns, error) {
	n, conds := len(p.entries), 0
	for i := range p.entries {
		g := &p.entries[i].gr
		conds += len(g.L) + len(g.W) + len(g.R)
	}
	m := p.opt.Metric
	pc := poolColumns{GRs: gr.MakeColumns(n, conds), LWR: make([]int32, n), LW: make([]int32, n)}
	if m.NeedsHom {
		pc.Hom = make([]int32, n)
	}
	if m.NeedsR {
		pc.R = make([]int32, n)
	}
	for i := range p.entries {
		t := &p.entries[i]
		if err := pc.GRs.Append(t.gr); err != nil {
			return poolColumns{}, fmt.Errorf("pool entry %d: %w", i, err)
		}
		pc.LWR[i], pc.LW[i] = int32(t.c.LWR), int32(t.c.LW)
		if m.NeedsHom {
			pc.Hom[i] = int32(t.c.Hom)
		}
		if m.NeedsR {
			pc.R[i] = int32(t.c.R)
		}
	}
	return pc, nil
}

// restore adds the entries of untrusted columns to the pool, in order. The
// GR columns must unpack, every count column must hold one entry per GR
// (Hom exactly when the metric reads it, R exactly when it reads R), and
// every GR must be valid for the schema — an out-of-schema condition would
// index past the dictionary's pair layout and the recount's value bitmaps.
// A worker interns every pool GR before it tracks it, so the restored
// dictionary already holds each one: restore finds its id with Dict.Lookup
// instead of re-interning, and fails closed on a GR the dictionary lacks or
// a GR listed twice, neither of which a real worker writes. Every entry's E
// is the store's live edge count. The pool must be empty; on error it holds
// a prefix of the entries and callers discard it.
func (p *densePool) restore(pc poolColumns) error {
	grs, err := pc.GRs.Unpack()
	if err != nil {
		return fmt.Errorf("pool GR columns: %w", err)
	}
	n, m := len(grs), p.opt.Metric
	want := func(on bool) int {
		if on {
			return n
		}
		return 0
	}
	if len(pc.LWR) != n || len(pc.LW) != n || len(pc.Hom) != want(m.NeedsHom) || len(pc.R) != want(m.NeedsR) {
		return fmt.Errorf("pool count columns (LWR %d, LW %d, Hom %d, R %d) misaligned with %d GRs under metric %s",
			len(pc.LWR), len(pc.LW), len(pc.Hom), len(pc.R), n, m.Name)
	}
	p.entries = make([]tracked, 0, n)
	p.ids = make([]intern.GRID, 0, n)
	p.moved = make([]bool, 0, n)
	p.slots = make([]int32, p.dict.NumGRs())
	schema, numEdges := p.st.Graph().Schema(), p.st.NumEdges()
	for i, g := range grs {
		if err := g.Valid(schema); err != nil {
			return fmt.Errorf("pool entry %d: %w", i, err)
		}
		c := metrics.Counts{LWR: int(pc.LWR[i]), LW: int(pc.LW[i]), E: numEdges}
		if m.NeedsHom {
			c.Hom = int(pc.Hom[i])
		}
		if m.NeedsR {
			c.R = int(pc.R[i])
		}
		id, ok := p.dict.Lookup(g)
		if !ok {
			return fmt.Errorf("pool entry %d: %s is not in the checkpoint's dictionary", i, g.Key())
		}
		if p.slots[id] != 0 {
			return fmt.Errorf("pool entry %d: %s repeats entry %d", i, g.Key(), p.slots[id]-1)
		}
		p.add(id, g, c, m.Score(c))
	}
	return nil
}

// Checkpoint serializes the worker's shard state — live edges, intern
// dictionary, maintained pool and its seeded-ness — into an opaque
// versioned blob. The inverse is NewWorkerStateFromCheckpoint.
func (w *WorkerState) Checkpoint() ([]byte, error) {
	ne := len(w.g.Schema().Edge)
	m := w.g.NumLiveEdges()
	img := checkpointImage{
		Version:  CheckpointVersion,
		Index:    w.idx,
		Shards:   w.shards,
		NumNodes: w.g.NumNodes(),
		EdgeSrc:  make([]int32, 0, m),
		EdgeDst:  make([]int32, 0, m),
		Dict:     w.st.Dict().State(),
		Seeded:   w.seeded,
	}
	if ne > 0 {
		img.EdgeVals = make([]graph.Value, 0, m*ne)
	}
	for e := 0; e < w.g.NumEdges(); e++ {
		if !w.g.EdgeAlive(e) {
			continue
		}
		img.EdgeSrc = append(img.EdgeSrc, int32(w.g.Src(e)))
		img.EdgeDst = append(img.EdgeDst, int32(w.g.Dst(e)))
		img.EdgeVals = append(img.EdgeVals, w.g.EdgeValues(e)...)
	}
	if w.seeded {
		// Entry order, not map order: restore upserts in blob order, so the
		// restored pool's dense layout — and its next checkpoint — match.
		pool, err := w.pool.columns()
		if err != nil {
			return nil, fmt.Errorf("core: worker %d: checkpoint: %w", w.idx, err)
		}
		img.Pool = pool
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		return nil, fmt.Errorf("core: worker %d: checkpoint encode: %w", w.idx, err)
	}
	return buf.Bytes(), nil
}

// NewWorkerStateFromCheckpoint builds a live worker from its spec and a
// checkpoint blob: the private graph from the blob's live edges, the store
// built over it with the blob's dictionary, and the blob's pool. The result
// answers every later request as the checkpointed worker would. The spec
// must describe the same shard the blob was taken from (index, shard
// count, node table); mismatches and foreign blob versions fail closed.
func NewWorkerStateFromCheckpoint(spec WorkerSpec, blob []byte) (*WorkerState, error) {
	var img checkpointImage
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&img); err != nil {
		// A blob of another generation may not even decode (version 3
		// changed field types); gob skips the fields a struct lacks, so
		// its version alone still reads, and names the real mismatch.
		var hdr struct{ Version int }
		if gob.NewDecoder(bytes.NewReader(blob)).Decode(&hdr) != nil || hdr.Version == CheckpointVersion {
			return nil, fmt.Errorf("core: shard %d: checkpoint decode: %w", spec.Index, err)
		}
		img.Version = hdr.Version
	}
	if img.Version != CheckpointVersion {
		return nil, fmt.Errorf("core: shard %d: checkpoint version %d, this build speaks %d",
			spec.Index, img.Version, CheckpointVersion)
	}
	if img.Index != spec.Index || img.Shards != spec.Shards {
		return nil, fmt.Errorf("core: checkpoint for shard %d/%d offered to shard %d/%d",
			img.Index, img.Shards, spec.Index, spec.Shards)
	}
	if img.NumNodes != spec.NumNodes {
		return nil, fmt.Errorf("core: shard %d: checkpoint node table (%d nodes) disagrees with spec (%d)",
			spec.Index, img.NumNodes, spec.NumNodes)
	}
	w, err := newWorker(spec, img.EdgeSrc, img.EdgeDst, img.EdgeVals, &img.Dict)
	if err != nil {
		return nil, err
	}
	if img.Seeded {
		if err := w.pool.restore(img.Pool); err != nil {
			return nil, fmt.Errorf("core: shard %d: checkpoint %w", spec.Index, err)
		}
		w.seeded = true
	}
	return w, nil
}
