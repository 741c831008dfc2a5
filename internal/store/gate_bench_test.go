// Bench-gate microbenchmark for the postings layer (DESIGN.md §7): the
// cost of materialising a first-level partition and of intersecting two
// posting dimensions — the operation deep re-mine descents are built from.
package store

import (
	"sync"
	"testing"

	"grminer/internal/datagen"
	"grminer/internal/graph"
)

var (
	pgateOnce sync.Once
	pgateSt   *Store
	pgateAttr struct {
		rAttr int
		rVal  graph.Value
		lAttr int
		lVal  graph.Value
	}
)

func pgateFixture(b *testing.B) {
	b.Helper()
	pgateOnce.Do(func() {
		cfg := datagen.DefaultPokecConfig()
		cfg.Nodes = 1500
		cfg.AvgOutDegree = 6
		g := datagen.Pokec(cfg)
		pgateSt = Build(g)
		pgateSt.EnablePostings()
		x := pgateSt.Postings()
		// Pick the most populous (attr, val) on each side so the benchmark
		// intersects real, non-trivial partitions.
		bestR, bestL := 0, 0
		for a := 0; a < len(g.Schema().Node); a++ {
			for v := graph.Value(1); int(v) <= g.Schema().Node[a].Domain; v++ {
				if n := x.RBitmap(a, v).Count(); n > bestR {
					bestR, pgateAttr.rAttr, pgateAttr.rVal = n, a, v
				}
				if n := x.LBitmap(a, v).Count(); n > bestL {
					bestL, pgateAttr.lAttr, pgateAttr.lVal = n, a, v
				}
			}
		}
	})
}

// BenchmarkPostingIntersect measures computing the rows that satisfy a
// destination condition AND a source condition — the sub-partition a deeper
// re-mine level needs. The "filter" variant is the row scan (materialise
// the R partition, test each row's L value); it is the pre-intersection
// technique, kept as the measured reference.
func BenchmarkPostingIntersect(b *testing.B) {
	pgateFixture(b)
	x := pgateSt.Postings()
	b.Run("filter", func(b *testing.B) {
		b.ReportAllocs()
		count := 0
		for i := 0; i < b.N; i++ {
			rBM := x.RBitmap(pgateAttr.rAttr, pgateAttr.rVal)
			rows := rBM.RowsInto(make([]int32, 0, rBM.Count()))
			count = 0
			for _, row := range rows {
				if pgateSt.LVal(row, pgateAttr.lAttr) == pgateAttr.lVal {
					count++
				}
			}
		}
		if count == 0 {
			b.Fatal("empty intersection; fixture degenerate")
		}
	})
	// The bitmap variant computes the same sub-partition by ANDing the two
	// packed live-row sets into a reused scratch buffer — the step the
	// scoped re-mine's bitmap walk (core's miner.intersect) and the round-2
	// counts kernel (core's bitmapCounter.intersectLW) are built from.
	b.Run("bitmap", func(b *testing.B) {
		b.ReportAllocs()
		var words Bitmap
		var rows []int32
		count := 0
		for i := 0; i < b.N; i++ {
			words = AndInto(words,
				x.RBitmap(pgateAttr.rAttr, pgateAttr.rVal),
				x.LBitmap(pgateAttr.lAttr, pgateAttr.lVal))
			rows = words.RowsInto(rows)
			count = len(rows)
		}
		if count == 0 {
			b.Fatal("empty intersection; fixture degenerate")
		}
	})
}
