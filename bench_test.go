// Benchmarks mirroring the paper's evaluation, one family per table/figure
// (DESIGN.md §5). They run at reduced scale so `go test -bench=.` finishes
// quickly; `cmd/grbench` performs the full harness runs recorded in
// EXPERIMENTS.md.
package grminer_test

import (
	"runtime"
	"strconv"
	"sync"
	"testing"

	"grminer"
	"grminer/internal/baseline"
	"grminer/internal/core"
	"grminer/internal/datagen"
	"grminer/internal/store"
)

// Shared fixtures, built once.
var (
	fixOnce  sync.Once
	pokecG   *grminer.Graph // 6 attrs
	pokec4G  *grminer.Graph // the Fig 4a-4c 4-attribute restriction
	pokecSt  *store.Store
	pokec4St *store.Store
	dblpG    *grminer.Graph
	dblpSt   *store.Store
)

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		pc := datagen.DefaultPokecConfig()
		pc.Nodes = 4000
		pc.AvgOutDegree = 10
		pokecG = datagen.Pokec(pc)
		var err error
		pokec4G, err = pokecG.Restrict([]int{
			datagen.PokecAge, datagen.PokecRegion, datagen.PokecEdu, datagen.PokecLooking,
		})
		if err != nil {
			panic(err)
		}
		pokecSt = store.Build(pokecG)
		pokec4St = store.Build(pokec4G)

		dc := datagen.DefaultDBLPConfig()
		dc.Authors = 8000
		dc.Pairs = 10000
		dblpG = datagen.DBLP(dc)
		dblpSt = store.Build(dblpG)
	})
}

func mineStore(b *testing.B, st *store.Store, opt core.Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.MineStore(st, opt)
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// Table IIa: the Pokec interestingness run (nhp, k = 300).
func BenchmarkTableIIa(b *testing.B) {
	fixtures(b)
	minSupp := pokecG.NumEdges() / 200
	b.Run("GRMinerK-nhp", func(b *testing.B) {
		mineStore(b, pokecSt, core.Options{MinSupp: minSupp, MinScore: 0.5, K: 300, DynamicFloor: true})
	})
	b.Run("ConfMiner", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.ConfMinerStore(pokecSt, minSupp, 0.5, 300); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Table IIb: the DBLP interestingness run (nhp vs conf, k = 20).
func BenchmarkTableIIb(b *testing.B) {
	fixtures(b)
	minSupp := dblpG.NumEdges() / 1000
	b.Run("GRMinerK-nhp", func(b *testing.B) {
		mineStore(b, dblpSt, core.Options{MinSupp: minSupp, MinScore: 0.5, K: 20, DynamicFloor: true})
	})
	b.Run("ConfMiner", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.ConfMinerStore(dblpSt, minSupp, 0.5, 20); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Fig 4a: time vs minSupp. Baselines run only at the moderate thresholds so
// the suite stays fast; grbench covers the full range.
func BenchmarkFig4a(b *testing.B) {
	fixtures(b)
	for _, minSupp := range []int{2, 10, 100, 1000} {
		opt := core.Options{MinSupp: minSupp, MinScore: 0.5, K: 100, DynamicFloor: true}
		b.Run("GRMinerK/minSupp="+itoa(minSupp), func(b *testing.B) {
			mineStore(b, pokec4St, opt)
		})
	}
	for _, minSupp := range []int{100, 1000} {
		b.Run("BL2/minSupp="+itoa(minSupp), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := baseline.BL2Store(pokec4St, baseline.Options{MinSupp: minSupp, MinScore: 0.5, K: 100}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("BL1/minSupp="+itoa(minSupp), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := baseline.BL1(pokec4G, baseline.Options{MinSupp: minSupp, MinScore: 0.5, K: 100}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Fig 4b: time vs minNhp for the two GRMiner variants.
func BenchmarkFig4b(b *testing.B) {
	fixtures(b)
	for _, pct := range []int{0, 25, 50, 75, 100} {
		nhp := float64(pct) / 100
		b.Run("GRMinerK/minNhp="+itoa(pct), func(b *testing.B) {
			mineStore(b, pokec4St, core.Options{MinSupp: 50, MinScore: nhp, K: 100, DynamicFloor: true})
		})
		b.Run("GRMiner/minNhp="+itoa(pct), func(b *testing.B) {
			mineStore(b, pokec4St, core.Options{MinSupp: 50, MinScore: nhp})
		})
	}
}

// Fig 4c: the joint (k, minNhp) effect on GRMiner(k).
func BenchmarkFig4c(b *testing.B) {
	fixtures(b)
	for _, k := range []int{1, 100, 10000} {
		for _, pct := range []int{0, 50, 100} {
			b.Run("k="+itoa(k)+"/minNhp="+itoa(pct), func(b *testing.B) {
				mineStore(b, pokec4St, core.Options{
					MinSupp: 50, MinScore: float64(pct) / 100, K: k, DynamicFloor: true,
				})
			})
		}
	}
}

// Fig 4d: time vs dimensionality (first l node attributes, 2l dimensions).
func BenchmarkFig4d(b *testing.B) {
	fixtures(b)
	for l := 2; l <= 6; l++ {
		attrs := make([]int, l)
		for i := range attrs {
			attrs[i] = i
		}
		g, err := pokecG.Restrict(attrs)
		if err != nil {
			b.Fatal(err)
		}
		st := store.Build(g)
		b.Run("GRMinerK/dims="+itoa(2*l), func(b *testing.B) {
			mineStore(b, st, core.Options{MinSupp: 50, MinScore: 0.5, K: 100, DynamicFloor: true})
		})
	}
}

// Section VII: the alternative metrics over DBLP.
func BenchmarkAltMetrics(b *testing.B) {
	fixtures(b)
	for _, m := range grminer.AllMetrics() {
		b.Run(m.Name, func(b *testing.B) {
			mineStore(b, dblpSt, core.Options{MinSupp: 50, MinScore: 0, K: 20, Metric: m})
		})
	}
}

// Section IV-A: data-model construction cost, compact vs single table.
func BenchmarkStoreModels(b *testing.B) {
	fixtures(b)
	b.Run("BuildCompact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := store.Build(pokecG)
			_ = st
		}
	})
	b.Run("Flatten", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ft := store.Flatten(pokecG)
			_ = ft
		}
	})
}

// DBLP wall-clock sanity point (Section VI-D).
func BenchmarkDBLPDefaultRun(b *testing.B) {
	fixtures(b)
	mineStore(b, dblpSt, core.Options{MinSupp: 67, MinScore: 0.5, K: 20, DynamicFloor: true})
}

// Ablation: the dynamic tail ordering of Equation 8 versus static τ.
func BenchmarkOrderingAblation(b *testing.B) {
	fixtures(b)
	b.Run("DynamicOrder", func(b *testing.B) {
		mineStore(b, pokec4St, core.Options{MinSupp: 50, MinScore: 0.5})
	})
	b.Run("StaticOrder", func(b *testing.B) {
		mineStore(b, pokec4St, core.Options{MinSupp: 50, MinScore: 0.5, StaticRHSOrder: true})
	})
}

// The static mine's width sweep: MineStore fans out over GOMAXPROCS, set
// here per sub-benchmark (speedup requires multicore; on one core this
// measures pure decomposition overhead).
func BenchmarkParallel(b *testing.B) {
	fixtures(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			mineStore(b, pokec4St, core.Options{MinSupp: 50, MinScore: 0.5})
		})
	}
}

func itoa(n int) string { return strconv.Itoa(n) }
