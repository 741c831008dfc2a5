package rpc_test

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"

	"grminer/internal/core"
)

// wireOptionsV2 is core.WireOptions as grlint:wire v2 shipped it, with the
// NoPostingLists flag v3 dropped. Gob matches fields by name, so this
// stands in for a v2 peer.
type wireOptionsV2 struct {
	MinSupp            int
	MinScore           float64
	K                  int
	DynamicFloor       bool
	Metric             string
	MaxL, MaxW, MaxR   int
	NoGeneralityFilter bool
	IncludeTrivial     bool
	ExactGenerality    bool
	StaticRHSOrder     bool
	Parallelism        int
	PoolCap            int
	NoPostingLists     bool
}

// TestWireOptionsV2Compat pins why dropping NoPostingLists needed no rpc
// Version bump: a v2 peer's options, flag set, decode into WireOptions
// with every field the current version keeps intact, and current options
// decode into the v2 shape with the flag simply false (which v2 workers
// ignored anyway) and Parallelism zero (v4 dropped it; see
// TestWireOptionsV3Compat).
func TestWireOptionsV2Compat(t *testing.T) {
	v2 := wireOptionsV2{
		MinSupp: 20, MinScore: 0.4, K: 7, DynamicFloor: true, Metric: "lift",
		MaxL: 3, MaxW: 2, MaxR: 4, NoGeneralityFilter: true, IncludeTrivial: true,
		ExactGenerality: true, StaticRHSOrder: true, Parallelism: 3, PoolCap: 9,
		NoPostingLists: true,
	}
	want := core.WireOptions{
		MinSupp: 20, MinScore: 0.4, K: 7, DynamicFloor: true, Metric: "lift",
		MaxL: 3, MaxW: 2, MaxR: 4, NoGeneralityFilter: true, IncludeTrivial: true,
		ExactGenerality: true, StaticRHSOrder: true, PoolCap: 9,
	}
	var cur core.WireOptions
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, v2))).Decode(&cur); err != nil {
		t.Fatalf("v2 → current decode: %v", err)
	}
	if cur != want {
		t.Errorf("v2 → current decode = %+v, want %+v", cur, want)
	}

	var back wireOptionsV2
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, want))).Decode(&back); err != nil {
		t.Fatalf("current → v2 decode: %v", err)
	}
	v2.NoPostingLists, v2.Parallelism = false, 0
	if back != v2 {
		t.Errorf("current → v2 decode = %+v, want %+v", back, v2)
	}
}

// wireOptionsV3 is core.WireOptions as grlint:wire v3 shipped it, with the
// Parallelism field v4 dropped.
type wireOptionsV3 struct {
	MinSupp            int
	MinScore           float64
	K                  int
	DynamicFloor       bool
	Metric             string
	MaxL, MaxW, MaxR   int
	NoGeneralityFilter bool
	IncludeTrivial     bool
	ExactGenerality    bool
	StaticRHSOrder     bool
	Parallelism        int
	PoolCap            int
}

// TestWireOptionsV3Compat pins why dropping Parallelism needed no rpc
// Version bump: a v3 peer's options, worker count set, decode into v4
// WireOptions with every other field intact, and v4 options decode into the
// v3 shape with the count simply zero, which a v3 worker reads as the
// sequential walk — the count only ever drove the static mine, which no
// shard worker runs.
func TestWireOptionsV3Compat(t *testing.T) {
	v3 := wireOptionsV3{
		MinSupp: 20, MinScore: 0.4, K: 7, DynamicFloor: true, Metric: "lift",
		MaxL: 3, MaxW: 2, MaxR: 4, NoGeneralityFilter: true, IncludeTrivial: true,
		ExactGenerality: true, StaticRHSOrder: true, Parallelism: 3, PoolCap: 9,
	}
	want := core.WireOptions{
		MinSupp: 20, MinScore: 0.4, K: 7, DynamicFloor: true, Metric: "lift",
		MaxL: 3, MaxW: 2, MaxR: 4, NoGeneralityFilter: true, IncludeTrivial: true,
		ExactGenerality: true, StaticRHSOrder: true, PoolCap: 9,
	}
	var v4 core.WireOptions
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, v3))).Decode(&v4); err != nil {
		t.Fatalf("v3 → v4 decode: %v", err)
	}
	if v4 != want {
		t.Errorf("v3 → v4 decode = %+v, want %+v", v4, want)
	}

	var back wireOptionsV3
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, want))).Decode(&back); err != nil {
		t.Fatalf("v4 → v3 decode: %v", err)
	}
	v3.Parallelism = 0
	if back != v3 {
		t.Errorf("v4 → v3 decode = %+v, want %+v", back, v3)
	}
}

// statsV1 is core.Stats as grlint:wire v1 shipped it, with the
// OneRoundGapFill counter v2 dropped.
type statsV1 struct {
	PartitionCalls     int64
	Examined           int64
	TrivialSeen        int64
	PrunedSupp         int64
	PrunedScore        int64
	Candidates         int64
	Blocked            int64
	HomScans           int64
	PrunedGlobal       int64
	ShardOffers        int64
	ExactCountRequests int64
	OneRoundGapFill    int64
	Duration           time.Duration
}

// TestStatsV1Compat pins why dropping OneRoundGapFill needed no rpc Version
// bump: a v1 peer's stats, counter set, decode into v2 Stats with every
// other field intact, and v2 stats decode into the v1 shape with the
// counter simply zero (the value every v1 worker reply carried anyway).
func TestStatsV1Compat(t *testing.T) {
	v1 := statsV1{
		PartitionCalls: 1, Examined: 2, TrivialSeen: 3, PrunedSupp: 4, PrunedScore: 5,
		Candidates: 6, Blocked: 7, HomScans: 8, PrunedGlobal: 9, ShardOffers: 10,
		ExactCountRequests: 11, OneRoundGapFill: 12, Duration: 13 * time.Millisecond,
	}
	want := core.Stats{
		PartitionCalls: 1, Examined: 2, TrivialSeen: 3, PrunedSupp: 4, PrunedScore: 5,
		Candidates: 6, Blocked: 7, HomScans: 8, PrunedGlobal: 9, ShardOffers: 10,
		ExactCountRequests: 11, Duration: 13 * time.Millisecond,
	}
	var v2 core.Stats
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, v1))).Decode(&v2); err != nil {
		t.Fatalf("v1 → v2 decode: %v", err)
	}
	if v2 != want {
		t.Errorf("v1 → v2 decode = %+v, want %+v", v2, want)
	}

	var back statsV1
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, want))).Decode(&back); err != nil {
		t.Fatalf("v2 → v1 decode: %v", err)
	}
	v1.OneRoundGapFill = 0
	if back != v1 {
		t.Errorf("v2 → v1 decode = %+v, want %+v", back, v1)
	}
}
