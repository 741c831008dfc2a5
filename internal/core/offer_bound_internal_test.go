package core

import (
	"fmt"
	"math"
	"testing"

	"grminer/internal/datagen"
	"grminer/internal/gr"
	"grminer/internal/graph"
)

// boundRuleCuts is the offer bound's rule written out from OfferBound's
// doc: over g's conditions, the smallest global singleton support H and the
// smallest support on the other shards O; g is globally unreachable when H
// falls below MinSupp or its local support plus O does.
func boundRuleCuts(b *OfferBound, g gr.GR, local int) bool {
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
	return global < b.MinSupp || local+others < b.MinSupp
}

// TestOfferBoundFiltersOffers pins what a bounded offer is: a fresh
// worker's Offer(bound) lists exactly its Offer(nil) — in the same order,
// with the same counts — less the GRs the bound rule cuts, on Pokec-like
// graphs at 2 to 4 shards.
func TestOfferBoundFiltersOffers(t *testing.T) {
	cut, kept := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		cfg := datagen.DefaultPokecConfig()
		cfg.Nodes, cfg.AvgOutDegree, cfg.Seed = 150, 5, seed
		g := datagen.Pokec(cfg)
		for shards := 2; shards <= 4; shards++ {
			label := fmt.Sprintf("seed %d, %d shards", seed, shards)
			opt, so, err := normalizeSharded(g, Options{MinSupp: 24, MinScore: 0.3, K: 20}, ShardOptions{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			parts, err := graph.PartitionEdges(g, so.Shards, so.Strategy)
			if err != nil {
				t.Fatal(err)
			}
			plan := planFromParts(opt, so, parts)
			sketches := make([]ShardSketch, len(parts))
			for i, part := range parts {
				sketches[i] = newShardSketch(g.Schema())
				for _, e := range part {
					sketches[i].addEdge(g.NodeValues(g.Src(int(e))), g.NodeValues(g.Dst(int(e))), g.EdgeValues(int(e)))
				}
			}
			bounds := buildOfferBounds(opt.MinSupp, sketches)
			for i, part := range parts {
				offer := func(b *OfferBound) []ShardCandidate {
					w, err := NewWorkerState(buildWorkerSpec(g, opt, plan, part, i))
					if err != nil {
						t.Fatal(err)
					}
					offers, _, err := w.Offer(b)
					if err != nil {
						t.Fatal(err)
					}
					return offers
				}
				got := offer(bounds[i])
				var want []ShardCandidate
				for _, c := range offer(nil) {
					if boundRuleCuts(bounds[i], c.GR, c.Counts.LWR) {
						cut++
						continue
					}
					want = append(want, c)
				}
				kept += len(want)
				if len(got) != len(want) {
					t.Fatalf("%s, shard %d: %d bounded offers, %d filtered", label, i, len(got), len(want))
				}
				for j := range got {
					if got[j].GR.Key() != want[j].GR.Key() || got[j].Counts != want[j].Counts {
						t.Fatalf("%s, shard %d: offer %d is %s %+v, filtered %s %+v", label, i, j,
							got[j].GR.Key(), got[j].Counts, want[j].GR.Key(), want[j].Counts)
					}
				}
			}
		}
	}
	t.Logf("%d offers kept, %d cut by the bound", kept, cut)
	if cut == 0 || kept == 0 {
		t.Fatalf("vacuous: %d offers kept, %d cut", kept, cut)
	}
}
