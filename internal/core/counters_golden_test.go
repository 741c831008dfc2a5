package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"grminer/internal/metrics"
	"grminer/internal/store"
)

var updateCounters = flag.Bool("update-counters", false, "rewrite testdata/counters.golden from the current search")

// TestSearchCountersGolden pins the search's work counters and its exact
// top-k on the bench-gate fixture. The partition kernel, the key gather and
// the pruning order may be rewritten for speed, but never so that the search
// examines, partitions, prunes or blocks anything differently: every counter
// below is a deterministic function of the SFDF walk, so a drift here means
// the walk itself changed.
func TestSearchCountersGolden(t *testing.T) {
	g := gateGraph()
	st := store.Build(g)
	base := Options{MinSupp: g.NumEdges() / 200, MinScore: 0.5, K: 50, DynamicFloor: true}

	var b strings.Builder
	mine := func(name string, opt Options) {
		res, _, err := mineStore(st, opt, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		writeCounters(&b, name, res)
	}
	mine("nhp-paper", base)
	exact := base
	exact.ExactGenerality = true
	mine("nhp-exactgen", exact)
	lift := base
	lift.Metric = metrics.LiftMetric
	lift.MinScore = 1
	lift.DynamicFloor = false
	mine("lift", lift)
	conf := base
	conf.Metric = metrics.ConfMetric
	conf.IncludeTrivial = true
	mine("conf-trivial", conf)

	inc, err := NewIncremental(gateGraph(), base)
	if err != nil {
		t.Fatal(err)
	}
	res, bs, err := inc.ApplyBatch(gateBatch(g, 0, 64))
	if err != nil {
		t.Fatal(err)
	}
	if bs.FullRemines != 0 || bs.SubtreesRemined == 0 {
		t.Fatalf("batch was not a scoped re-mine: %+v", bs)
	}
	writeCounters(&b, "incremental-scoped", res)

	golden := filepath.Join("testdata", "counters.golden")
	got := b.String()
	if *updateCounters {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v; generate it with: go test ./internal/core -run TestSearchCountersGolden -update-counters", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("search drifted from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
			}
		}
	}
}

func writeCounters(b *strings.Builder, name string, res *Result) {
	s := res.Stats
	fmt.Fprintf(b, "== %s\n", name)
	fmt.Fprintf(b, "examined=%d hom_scans=%d partition_calls=%d pruned_supp=%d trivial_seen=%d blocked=%d\n",
		s.Examined, s.HomScans, s.PartitionCalls, s.PrunedSupp, s.TrivialSeen, s.Blocked)
	for i, r := range res.TopK {
		fmt.Fprintf(b, "%d %s supp=%d score=%.17g\n", i+1, r.GR.String(), r.Supp, r.Score)
	}
}
