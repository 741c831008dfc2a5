// Package intern provides the dense (attribute, value) id space the hot
// mine and re-mine paths index their tables by, replacing the string keys
// (gr.Key / gr.RHSKey) that used to drive map-heavy counting — the GC
// hotspot profile DESIGN.md §7 documents.
//
// Two layers:
//
//   - Layout: the schema-static pair id space. Every non-null (attribute,
//     value) pair of a schema gets a dense id by pure arithmetic — node
//     attributes first, edge attributes after — so pair ids need no map, no
//     allocation, and are trivially stable under every store mutation
//     (Append, deletions, rebuild-compaction): they depend on nothing
//     but the immutable schema.
//
//   - Dict: a trie over pair ids interning condition paths (descriptors)
//     and whole GRs into dense ids. Ids are handed out in first-seen order
//     and NEVER reused or remapped — the intern property tests pin this
//     across arbitrary store mutation sequences — so a slice indexed by
//     DescID or GRID stays valid for the dictionary's lifetime. A Dict is
//     not safe for concurrent use; parallel mine workers each own a private
//     Dict (pair ids still agree across them, desc/GR ids are worker-local).
package intern

import (
	"fmt"

	"grminer/internal/gr"
	"grminer/internal/graph"
)

// PairID is a dense id for one non-null (attribute, value) pair. Node and
// edge attributes share one id space (node pairs first).
type PairID int32

// DescID is a dense id for a condition path (a sorted descriptor). The empty
// descriptor is always id 0.
type DescID int32

// GRID is a dense id for a whole GR (its L, W, R descriptor triple).
type GRID int32

// Layout is the schema-static pair id space. It is immutable after New and
// safe for concurrent use.
type Layout struct {
	nodeOff []int32 // per node attribute: id of (attr, 1)
	edgeOff []int32 // per edge attribute: id of (attr, 1)
	pairs   int32
}

// NewLayout builds the pair id space for a schema.
func NewLayout(s *graph.Schema) *Layout {
	l := &Layout{
		nodeOff: make([]int32, len(s.Node)),
		edgeOff: make([]int32, len(s.Edge)),
	}
	var off int32
	for a := range s.Node {
		l.nodeOff[a] = off
		off += int32(s.Node[a].Domain)
	}
	for a := range s.Edge {
		l.edgeOff[a] = off
		off += int32(s.Edge[a].Domain)
	}
	l.pairs = off
	return l
}

// NumPairs returns the total pair id space size.
func (l *Layout) NumPairs() int { return int(l.pairs) }

// NodePair returns the dense id of node-attribute pair (attr, val); val must
// be non-null and within attr's domain (the graph layer validates stored
// values, so no range check is repeated here).
func (l *Layout) NodePair(attr int, val graph.Value) PairID {
	return PairID(l.nodeOff[attr] + int32(val) - 1)
}

// EdgePair is NodePair for edge attributes.
func (l *Layout) EdgePair(attr int, val graph.Value) PairID {
	return PairID(l.edgeOff[attr] + int32(val) - 1)
}

// Dict interns descriptors and GRs over a Layout into dense ids. Not safe
// for concurrent use.
type Dict struct {
	layout *Layout
	// trie holds the descriptor paths: key = parent DescID << 32 | PairID,
	// value = child DescID. The empty descriptor is the root, id 0.
	trie  map[uint64]DescID
	nDesc DescID
	// grs interns (L, W, R) desc id triples.
	grs map[[3]DescID]GRID
	nGR GRID
}

// NewDict returns an empty dictionary over layout.
func NewDict(layout *Layout) *Dict {
	return &Dict{
		layout: layout,
		trie:   make(map[uint64]DescID),
		nDesc:  1, // 0 is the empty descriptor
		grs:    make(map[[3]DescID]GRID),
	}
}

// Layout returns the dictionary's pair id space.
func (d *Dict) Layout() *Layout { return d.layout }

// NumDescs returns the descriptor id space bound: every DescID handed out so
// far is < NumDescs(). Slice tables indexed by DescID grow to this.
func (d *Dict) NumDescs() int { return int(d.nDesc) }

// NumGRs is NumDescs for GR ids.
func (d *Dict) NumGRs() int { return int(d.nGR) }

// step walks (or creates) one trie edge.
func (d *Dict) step(parent DescID, p PairID) DescID {
	key := uint64(uint32(parent))<<32 | uint64(uint32(p))
	if id, ok := d.trie[key]; ok {
		return id
	}
	id := d.nDesc
	d.nDesc++
	d.trie[key] = id
	return id
}

// NodeDesc interns a node descriptor (an L or R side; both share the node
// pair space, so equal descriptors get equal ids regardless of side).
func (d *Dict) NodeDesc(desc gr.Descriptor) DescID {
	id := DescID(0)
	for _, c := range desc {
		id = d.step(id, d.layout.NodePair(c.Attr, c.Val))
	}
	return id
}

// EdgeDesc interns an edge descriptor (a W side).
func (d *Dict) EdgeDesc(desc gr.Descriptor) DescID {
	id := DescID(0)
	for _, c := range desc {
		id = d.step(id, d.layout.EdgePair(c.Attr, c.Val))
	}
	return id
}

// GR interns a whole GR from its descriptor triple.
func (d *Dict) GR(g gr.GR) GRID {
	return d.GRFrom(d.NodeDesc(g.L), d.EdgeDesc(g.W), d.NodeDesc(g.R))
}

// GRFrom interns a GR from already-interned descriptor ids (callers that
// intern the sides anyway avoid re-walking the conditions).
func (d *Dict) GRFrom(l, w, r DescID) GRID {
	key := [3]DescID{l, w, r}
	if id, ok := d.grs[key]; ok {
		return id
	}
	id := d.nGR
	d.nGR++
	d.grs[key] = id
	return id
}

// Lookup returns g's id if the dictionary already interns g, and false
// otherwise. Unlike GR it never interns: it only reads, so any number of
// goroutines may call it at once while nobody interns.
func (d *Dict) Lookup(g gr.GR) (GRID, bool) {
	var key [3]DescID
	for i, desc := range [3]gr.Descriptor{g.L, g.W, g.R} {
		id := DescID(0)
		for _, c := range desc {
			p := d.layout.NodePair(c.Attr, c.Val)
			if i == 1 {
				p = d.layout.EdgePair(c.Attr, c.Val)
			}
			var ok bool
			if id, ok = d.trie[uint64(uint32(id))<<32|uint64(uint32(p))]; !ok {
				return 0, false
			}
		}
		key[i] = id
	}
	id, ok := d.grs[key]
	return id, ok
}

// DictState is a Dict's serializable interning state: every id's key, in id
// order — Descs[i] is descriptor id i+1's trie edge (parent DescID << 32 |
// PairID; id 0, the empty descriptor, has none) and GRs[3i:3i+3] is GR id
// i's (L, W, R) triple of DescIDs, flat so a checkpoint encodes one slice
// rather than a slice of arrays, and as plain int32s because gob's fast
// path for slices takes only unnamed element types (a []DescID encodes
// and decodes element by element through reflection). Ids are handed out
// densely, so the slices are complete and, unlike the maps they index,
// encode deterministically: equal dictionaries serialize to equal bytes.
// The Layout is deliberately absent — pair ids are pure schema arithmetic,
// so the restoring side rebuilds the layout from its own schema and
// FromState grafts the interned ids back on.
// A restored Dict hands out the exact same ids for the exact same inputs,
// which is what lets slice tables indexed by DescID/GRID survive a worker
// checkpoint round trip (DESIGN.md §9).
type DictState struct {
	Descs []uint64
	GRs   []int32
}

// State snapshots the dictionary's interning state into fresh slices.
func (d *Dict) State() DictState {
	st := DictState{
		Descs: make([]uint64, d.nDesc-1),
		GRs:   make([]int32, 3*d.nGR),
	}
	for key, id := range d.trie {
		st.Descs[id-1] = key
	}
	for key, id := range d.grs {
		st.GRs[3*id], st.GRs[3*id+1], st.GRs[3*id+2] = int32(key[0]), int32(key[1]), int32(key[2])
	}
	return st
}

// FromState rebuilds a dictionary over layout with st's id assignments. A
// state arrives from outside the process (a checkpoint blob), so it fails
// closed on anything NewDict and its interning could not have produced: a
// trie edge whose parent is not an earlier descriptor, a pair id outside
// layout, a repeated key (which would silently shift every id handed out
// later), a GR column that is not whole triples, or a GR triple naming an
// unknown descriptor or repeating another.
func FromState(layout *Layout, st DictState) (*Dict, error) {
	d := NewDict(layout)
	d.trie = make(map[uint64]DescID, len(st.Descs))
	d.grs = make(map[[3]DescID]GRID, len(st.GRs)/3)
	for i, key := range st.Descs {
		id := DescID(i + 1)
		if parent := key >> 32; parent >= uint64(id) {
			return nil, fmt.Errorf("intern: state: descriptor %d hangs off descriptor %d", id, parent)
		}
		if p := uint32(key); p >= uint32(layout.NumPairs()) {
			return nil, fmt.Errorf("intern: state: descriptor %d steps by pair %d of %d", id, p, layout.NumPairs())
		}
		if _, dup := d.trie[key]; dup {
			return nil, fmt.Errorf("intern: state: descriptor %d repeats a trie edge", id)
		}
		d.trie[key] = id
	}
	d.nDesc = DescID(len(st.Descs) + 1)
	if len(st.GRs)%3 != 0 {
		return nil, fmt.Errorf("intern: state: %d GR descriptor ids are not whole (L, W, R) triples", len(st.GRs))
	}
	for i := 0; i < len(st.GRs)/3; i++ {
		key := [3]DescID{DescID(st.GRs[3*i]), DescID(st.GRs[3*i+1]), DescID(st.GRs[3*i+2])}
		for _, desc := range key {
			if desc < 0 || desc >= d.nDesc {
				return nil, fmt.Errorf("intern: state: GR %d names descriptor %d of %d", i, desc, d.nDesc)
			}
		}
		if _, dup := d.grs[key]; dup {
			return nil, fmt.Errorf("intern: state: GR %d repeats a descriptor triple", i)
		}
		d.grs[key] = GRID(i)
	}
	d.nGR = GRID(len(st.GRs) / 3)
	return d, nil
}
