package rpc

import (
	"fmt"
	"math"

	"grminer/internal/core"
	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
)

// packCountQuery flattens a round-2 query into columns. A descriptor
// longer than 255 conditions or an attribute outside [0, 65535] cannot be
// encoded; neither occurs in a GR that is valid for a schema gob can carry.
func packCountQuery(grs []gr.GR) (CountQuery, error) {
	n := 0
	for _, g := range grs {
		n += len(g.L) + len(g.W) + len(g.R)
	}
	q := CountQuery{
		Lens:  make([]uint8, 0, 3*len(grs)),
		Attrs: make([]uint16, 0, n),
		Vals:  make([]uint16, 0, n),
	}
	for i, g := range grs {
		for _, d := range [3]gr.Descriptor{g.L, g.W, g.R} {
			if len(d) > math.MaxUint8 {
				return CountQuery{}, fmt.Errorf("GR %d: descriptor of %d conditions", i, len(d))
			}
			q.Lens = append(q.Lens, uint8(len(d)))
			for _, c := range d {
				if c.Attr < 0 || c.Attr > math.MaxUint16 {
					return CountQuery{}, fmt.Errorf("GR %d: attribute %d not encodable", i, c.Attr)
				}
				q.Attrs = append(q.Attrs, uint16(c.Attr))
				q.Vals = append(q.Vals, uint16(c.Val))
			}
		}
	}
	return q, nil
}

// unpack rebuilds the queried GRs; their descriptors share one backing
// array. The columns are untrusted: a Lens column that is not whole
// triples, or lengths that do not sum to the condition columns, is an
// error. Whether each condition names an attribute and value of the schema
// is the worker's check (core.WorkerState.Counts).
func (q CountQuery) unpack() ([]gr.GR, error) {
	if len(q.Lens)%3 != 0 {
		return nil, fmt.Errorf("%d descriptor lengths are not whole (L, W, R) triples", len(q.Lens))
	}
	if len(q.Attrs) != len(q.Vals) {
		return nil, fmt.Errorf("%d attributes but %d values", len(q.Attrs), len(q.Vals))
	}
	total := 0
	for _, l := range q.Lens {
		total += int(l)
	}
	if total != len(q.Attrs) {
		return nil, fmt.Errorf("descriptor lengths sum to %d conditions, columns hold %d", total, len(q.Attrs))
	}
	conds := make([]gr.Cond, total)
	for i := range conds {
		conds[i] = gr.Cond{Attr: int(q.Attrs[i]), Val: graph.Value(q.Vals[i])}
	}
	off := 0
	next := func(l uint8) gr.Descriptor {
		if l == 0 {
			return nil
		}
		d := conds[off : off+int(l) : off+int(l)]
		off += int(l)
		return d
	}
	grs := make([]gr.GR, len(q.Lens)/3)
	for i := range grs {
		grs[i] = gr.GR{L: next(q.Lens[3*i]), W: next(q.Lens[3*i+1]), R: next(q.Lens[3*i+2])}
	}
	return grs, nil
}

// answerCounts serves one counts request on w: unpack, count, and pack the
// counts into columns.
func answerCounts(w *core.WorkerState, q CountQuery) (CountColumns, error) {
	grs, err := q.unpack()
	if err != nil {
		return CountColumns{}, fmt.Errorf("malformed counts query: %w", err)
	}
	counts, err := w.Counts(grs)
	if err != nil {
		return CountColumns{}, err
	}
	return packCountColumns(w.Metric(), counts), nil
}

// packCountColumns puts counts into columns, Hom only when m reads it and R
// only when m reads R.
func packCountColumns(m metrics.Metric, counts []metrics.Counts) CountColumns {
	n := len(counts)
	c := CountColumns{LWR: make([]int32, n), LW: make([]int32, n)}
	if m.NeedsHom {
		c.Hom = make([]int32, n)
	}
	if m.NeedsR {
		c.R = make([]int32, n)
	}
	for i, k := range counts {
		c.LWR[i], c.LW[i] = int32(k.LWR), int32(k.LW)
		if m.NeedsHom {
			c.Hom[i] = int32(k.Hom)
		}
		if m.NeedsR {
			c.R[i] = int32(k.R)
		}
	}
	return c
}

// unpack rebuilds the counts of an n-GR query on a shard of numEdges
// edges. LWR and LW must hold n entries; Hom and R either n or none (the
// metric does not read them). Anything else is a malformed reply.
func (c CountColumns) unpack(n, numEdges int) ([]metrics.Counts, error) {
	if len(c.LWR) != n || len(c.LW) != n || (len(c.Hom) != 0 && len(c.Hom) != n) || (len(c.R) != 0 && len(c.R) != n) {
		return nil, fmt.Errorf("count columns (LWR %d, LW %d, Hom %d, R %d) misaligned with %d queries",
			len(c.LWR), len(c.LW), len(c.Hom), len(c.R), n)
	}
	out := make([]metrics.Counts, n)
	for i := range out {
		out[i] = metrics.Counts{LWR: int(c.LWR[i]), LW: int(c.LW[i]), E: numEdges}
		if len(c.Hom) != 0 {
			out[i].Hom = int(c.Hom[i])
		}
		if len(c.R) != 0 {
			out[i].R = int(c.R[i])
		}
	}
	return out, nil
}
