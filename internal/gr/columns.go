package gr

import (
	"fmt"
	"math"

	"grminer/internal/graph"
)

// Columns is a list of GRs laid out flat: Lens holds three entries per GR
// — |L|, |W|, |R| — and Attrs and Vals hold the conditions of every
// descriptor in that order, GR after GR. It is the form GR lists take
// where they are serialized in bulk (the round-2 count query on the shard
// wire, the pool of a worker checkpoint): gob writes three flat slices in
// one pass each instead of reflecting over every descriptor.
type Columns struct {
	Lens  []uint8
	Attrs []uint16
	Vals  []uint16
}

// MakeColumns returns empty columns with room for n GRs holding conds
// conditions in total.
func MakeColumns(n, conds int) Columns {
	return Columns{
		Lens:  make([]uint8, 0, 3*n),
		Attrs: make([]uint16, 0, conds),
		Vals:  make([]uint16, 0, conds),
	}
}

// PackColumns lays grs out as columns.
func PackColumns(grs []GR) (Columns, error) {
	n := 0
	for _, g := range grs {
		n += len(g.L) + len(g.W) + len(g.R)
	}
	c := MakeColumns(len(grs), n)
	for i, g := range grs {
		if err := c.Append(g); err != nil {
			return Columns{}, fmt.Errorf("GR %d: %w", i, err)
		}
	}
	return c, nil
}

// Append adds g after the GRs already in c. A descriptor longer than 255
// conditions or an attribute outside [0, 65535] cannot be encoded; neither
// occurs in a GR that is valid for a schema gob can carry. On error c is
// unchanged.
func (c *Columns) Append(g GR) error {
	ds := [3]Descriptor{g.L, g.W, g.R}
	for _, d := range ds {
		if len(d) > math.MaxUint8 {
			return fmt.Errorf("descriptor of %d conditions", len(d))
		}
		for _, cd := range d {
			if cd.Attr < 0 || cd.Attr > math.MaxUint16 {
				return fmt.Errorf("attribute %d not encodable", cd.Attr)
			}
		}
	}
	for _, d := range ds {
		c.Lens = append(c.Lens, uint8(len(d)))
		for _, cd := range d {
			c.Attrs = append(c.Attrs, uint16(cd.Attr))
			c.Vals = append(c.Vals, uint16(cd.Val))
		}
	}
	return nil
}

// Unpack rebuilds the GRs; their descriptors share one backing array. The
// columns are untrusted: a Lens column that is not whole triples, or
// lengths that do not sum to the condition columns, is an error. Whether
// each condition names an attribute and value of a schema is the caller's
// check (GR.Valid).
func (c Columns) Unpack() ([]GR, error) {
	if len(c.Lens)%3 != 0 {
		return nil, fmt.Errorf("%d descriptor lengths are not whole (L, W, R) triples", len(c.Lens))
	}
	if len(c.Attrs) != len(c.Vals) {
		return nil, fmt.Errorf("%d attributes but %d values", len(c.Attrs), len(c.Vals))
	}
	total := 0
	for _, l := range c.Lens {
		total += int(l)
	}
	if total != len(c.Attrs) {
		return nil, fmt.Errorf("descriptor lengths sum to %d conditions, columns hold %d", total, len(c.Attrs))
	}
	conds := make([]Cond, total)
	for i := range conds {
		conds[i] = Cond{Attr: int(c.Attrs[i]), Val: graph.Value(c.Vals[i])}
	}
	off := 0
	next := func(l uint8) Descriptor {
		if l == 0 {
			return nil
		}
		d := conds[off : off+int(l) : off+int(l)]
		off += int(l)
		return d
	}
	grs := make([]GR, len(c.Lens)/3)
	for i := range grs {
		grs[i] = GR{L: next(c.Lens[3*i]), W: next(c.Lens[3*i+1]), R: next(c.Lens[3*i+2])}
	}
	return grs, nil
}
