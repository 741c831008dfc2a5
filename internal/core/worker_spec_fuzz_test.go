package core

import (
	"testing"

	"grminer/internal/graph"
)

// FuzzWorkerSpec feeds build requests assembled from fuzzed fields to
// NewWorkerState, the constructor shardd's Build runs on a WorkerSpec off
// the wire. A spec must be refused with an error or yield a worker that
// can offer and checkpoint; it must never panic. Node values come one byte
// each and edges three bytes each (source, destination, edge value); the
// seed corpus holds a well-formed spec and the node count whose product
// with the attribute count overflows to an empty node table.
func FuzzWorkerSpec(f *testing.F) {
	f.Add(uint8(2), int64(4), []byte{1, 2, 2, 1, 0, 1, 1, 2}, []byte{0, 1, 1, 1, 2, 2, 2, 3, 1, 3, 0, 2}, 1, 0, 2, 1, 10)
	f.Add(uint8(4), int64(1)<<62, []byte{}, []byte{}, 1, 0, 1, 1, 0)
	f.Fuzz(func(t *testing.T, nodeAttrs uint8, numNodes int64, nodeVals, edges []byte, shardMinSupp, index, shards, minSupp, k int) {
		nv := min(max(int(nodeAttrs), 1), 4)
		spec := WorkerSpec{
			NumNodes:     int(numNodes),
			EdgeAttrs:    []graph.Attribute{{Name: "W", Domain: 2}},
			Opt:          Options{MinSupp: minSupp, K: k, DynamicFloor: k > 0}.Wire(),
			ShardMinSupp: shardMinSupp,
			Index:        index,
			Shards:       shards,
		}
		for a := 0; a < nv; a++ {
			spec.NodeAttrs = append(spec.NodeAttrs, graph.Attribute{Name: string(rune('A' + a)), Domain: 2, Homophily: a == 0})
		}
		for _, v := range nodeVals {
			spec.NodeVals = append(spec.NodeVals, graph.Value(v))
		}
		for i := 0; i+2 < len(edges); i += 3 {
			spec.EdgeSrc = append(spec.EdgeSrc, int32(edges[i]))
			spec.EdgeDst = append(spec.EdgeDst, int32(edges[i+1]))
			spec.EdgeVals = append(spec.EdgeVals, graph.Value(edges[i+2]))
		}
		w, err := NewWorkerState(spec)
		if err != nil {
			return
		}
		if _, _, err := w.Offer(nil); err != nil {
			t.Fatalf("built worker cannot offer: %v", err)
		}
		if _, err := w.Checkpoint(); err != nil {
			t.Fatalf("built worker cannot checkpoint: %v", err)
		}
	})
}
