package rpc_test

import (
	"bytes"
	"encoding/gob"
	"testing"

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
// Version bump: a v2 peer's options, flag set, decode into v3 WireOptions
// with every other field intact, and v3 options decode into the v2 shape
// with the flag simply false (which v2 workers ignored anyway).
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
		ExactGenerality: true, StaticRHSOrder: true, Parallelism: 3, PoolCap: 9,
	}
	var v3 core.WireOptions
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, v2))).Decode(&v3); err != nil {
		t.Fatalf("v2 → v3 decode: %v", err)
	}
	if v3 != want {
		t.Errorf("v2 → v3 decode = %+v, want %+v", v3, want)
	}

	var back wireOptionsV2
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, want))).Decode(&back); err != nil {
		t.Fatalf("v3 → v2 decode: %v", err)
	}
	v2.NoPostingLists = false
	if back != v2 {
		t.Errorf("v3 → v2 decode = %+v, want %+v", back, v2)
	}
}
