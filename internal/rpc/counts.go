package rpc

import (
	"fmt"

	"grminer/internal/core"
	"grminer/internal/gr"
	"grminer/internal/metrics"
)

// answerCounts serves one counts request on w: unpack the query with the
// GR column codec, count, and pack the counts into columns.
func answerCounts(w *core.WorkerState, q CountQuery) (CountColumns, error) {
	grs, err := gr.Columns(q).Unpack()
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
