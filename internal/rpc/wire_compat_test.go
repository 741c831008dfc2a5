package rpc_test

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"grminer/internal/core"
	"grminer/internal/gr"
	"grminer/internal/intern"
	"grminer/internal/metrics"
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
// ignored anyway), Parallelism zero (v4 dropped it; see
// TestWireOptionsV3Compat) and PoolCap zero (v5 dropped it; see
// TestWireOptionsV4Compat).
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
		ExactGenerality: true, StaticRHSOrder: true,
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
	v2.NoPostingLists, v2.Parallelism, v2.PoolCap = false, 0, 0
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
// Version bump: a v3 peer's options, worker count set, decode into
// WireOptions with every field the current version keeps intact, and
// current options decode into the v3 shape with the count simply zero,
// which a v3 worker reads as the sequential walk — the count only ever
// drove the static mine, which no shard worker runs. PoolCap decodes zero
// too (v5 dropped it; see TestWireOptionsV4Compat).
func TestWireOptionsV3Compat(t *testing.T) {
	v3 := wireOptionsV3{
		MinSupp: 20, MinScore: 0.4, K: 7, DynamicFloor: true, Metric: "lift",
		MaxL: 3, MaxW: 2, MaxR: 4, NoGeneralityFilter: true, IncludeTrivial: true,
		ExactGenerality: true, StaticRHSOrder: true, Parallelism: 3, PoolCap: 9,
	}
	want := core.WireOptions{
		MinSupp: 20, MinScore: 0.4, K: 7, DynamicFloor: true, Metric: "lift",
		MaxL: 3, MaxW: 2, MaxR: 4, NoGeneralityFilter: true, IncludeTrivial: true,
		ExactGenerality: true, StaticRHSOrder: true,
	}
	var cur core.WireOptions
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, v3))).Decode(&cur); err != nil {
		t.Fatalf("v3 → current decode: %v", err)
	}
	if cur != want {
		t.Errorf("v3 → current decode = %+v, want %+v", cur, want)
	}

	var back wireOptionsV3
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, want))).Decode(&back); err != nil {
		t.Fatalf("current → v3 decode: %v", err)
	}
	v3.Parallelism, v3.PoolCap = 0, 0
	if back != v3 {
		t.Errorf("current → v3 decode = %+v, want %+v", back, v3)
	}
}

// wireOptionsV4 is core.WireOptions as grlint:wire v4 shipped it, with the
// PoolCap field v5 dropped.
type wireOptionsV4 struct {
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
	PoolCap            int
}

// TestWireOptionsV4Compat pins why dropping PoolCap needed no rpc Version
// bump: a v4 peer's options, cap set, decode into v5 WireOptions with every
// other field intact, and v5 options decode into the v4 shape with the cap
// simply zero — the only value a v4 shard worker ever received, since the
// v4 sharded engines refused any other.
func TestWireOptionsV4Compat(t *testing.T) {
	v4 := wireOptionsV4{
		MinSupp: 20, MinScore: 0.4, K: 7, DynamicFloor: true, Metric: "lift",
		MaxL: 3, MaxW: 2, MaxR: 4, NoGeneralityFilter: true, IncludeTrivial: true,
		ExactGenerality: true, StaticRHSOrder: true, PoolCap: 9,
	}
	want := core.WireOptions{
		MinSupp: 20, MinScore: 0.4, K: 7, DynamicFloor: true, Metric: "lift",
		MaxL: 3, MaxW: 2, MaxR: 4, NoGeneralityFilter: true, IncludeTrivial: true,
		ExactGenerality: true, StaticRHSOrder: true,
	}
	var v5 core.WireOptions
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, v4))).Decode(&v5); err != nil {
		t.Fatalf("v4 → v5 decode: %v", err)
	}
	if v5 != want {
		t.Errorf("v4 → v5 decode = %+v, want %+v", v5, want)
	}

	var back wireOptionsV4
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, want))).Decode(&back); err != nil {
		t.Fatalf("v5 → v4 decode: %v", err)
	}
	v4.PoolCap = 0
	if back != v4 {
		t.Errorf("v5 → v4 decode = %+v, want %+v", back, v4)
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

// statsV2 is core.Stats as grlint:wire v2 shipped it, before v3 added the
// static mine's phase times.
type statsV2 struct {
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
	Duration           time.Duration
}

// TestStatsV2Compat pins why adding the phase times needed no rpc Version
// bump: a v2 peer's stats decode into v3 Stats with the phases zero, and v3
// stats, phases set, decode into the v2 shape with every shared field
// intact. Only a static Mine sets the phases, and no worker reply carries
// one.
func TestStatsV2Compat(t *testing.T) {
	v2 := statsV2{
		PartitionCalls: 1, Examined: 2, TrivialSeen: 3, PrunedSupp: 4, PrunedScore: 5,
		Candidates: 6, Blocked: 7, HomScans: 8, PrunedGlobal: 9, ShardOffers: 10,
		ExactCountRequests: 11, Duration: 12 * time.Millisecond,
	}
	want := core.Stats{
		PartitionCalls: 1, Examined: 2, TrivialSeen: 3, PrunedSupp: 4, PrunedScore: 5,
		Candidates: 6, Blocked: 7, HomScans: 8, PrunedGlobal: 9, ShardOffers: 10,
		ExactCountRequests: 11, Duration: 12 * time.Millisecond,
	}
	var v3 core.Stats
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, v2))).Decode(&v3); err != nil {
		t.Fatalf("v2 → v3 decode: %v", err)
	}
	if v3 != want {
		t.Errorf("v2 → v3 decode = %+v, want %+v", v3, want)
	}

	timed := want
	timed.IndexTime, timed.PlanTime, timed.WalkTime, timed.WalkBusy, timed.MergeTime = 1, 2, 3, 4, 5
	var back statsV2
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, timed))).Decode(&back); err != nil {
		t.Fatalf("v3 → v2 decode: %v", err)
	}
	if back != v2 {
		t.Errorf("v3 → v2 decode = %+v, want %+v", back, v2)
	}
}

// ingestReplyV3 is core.IngestReply as grlint:wire v3 shipped it, with the
// delta handles typed []intern.GRID; v4 types them []int32.
type ingestReplyV3 struct {
	NumEdges        int
	Deltas          []intern.GRID
	LWR, LW, Hom, R []int32
	Entered         []core.ShardCandidate
	Recounted       int
	SubtreesRemined int
	SubtreesTotal   int
	Stats           core.Stats
}

// TestIngestReplyV3Compat pins why retyping IngestReply.Deltas needed no
// rpc Version bump: a v3 reply decodes into v4 with every field intact and
// a v4 reply into the v3 shape, because gob matches a slice by its element
// kind, not its type name. Past the one-time type descriptor, which names
// the slice type, the two encode every reply to the same bytes.
func TestIngestReplyV3Compat(t *testing.T) {
	entered := []core.ShardCandidate{{
		GR:     gr.GR{L: gr.Descriptor{{Attr: 0, Val: 1}}, R: gr.Descriptor{{Attr: 1, Val: 2}}},
		Counts: metrics.Counts{LWR: 5, LW: 6},
		Handle: 7,
	}}
	v3 := ingestReplyV3{
		NumEdges: 100, Deltas: []intern.GRID{3, 7, 1 << 20},
		LWR: []int32{4, 5, 1}, LW: []int32{8, 6, 2}, Hom: []int32{1, 2, 0},
		Entered: entered, Recounted: 9, SubtreesRemined: 2, SubtreesTotal: 5,
		Stats: core.Stats{Examined: 11, Duration: time.Millisecond},
	}
	want := core.IngestReply{
		NumEdges: 100, Deltas: []int32{3, 7, 1 << 20},
		LWR: []int32{4, 5, 1}, LW: []int32{8, 6, 2}, Hom: []int32{1, 2, 0},
		Entered: entered, Recounted: 9, SubtreesRemined: 2, SubtreesTotal: 5,
		Stats: core.Stats{Examined: 11, Duration: time.Millisecond},
	}
	var v4 core.IngestReply
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, v3))).Decode(&v4); err != nil {
		t.Fatalf("v3 → v4 decode: %v", err)
	}
	if !reflect.DeepEqual(v4, want) {
		t.Errorf("v3 → v4 decode = %+v, want %+v", v4, want)
	}
	var back ingestReplyV3
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, want))).Decode(&back); err != nil {
		t.Fatalf("v4 → v3 decode: %v", err)
	}
	if !reflect.DeepEqual(back, v3) {
		t.Errorf("v4 → v3 decode = %+v, want %+v", back, v3)
	}

	if a, b := gobPayload(t, v3), gobPayload(t, want); !bytes.Equal(a, b) {
		t.Errorf("a v3 reply encodes to %x, the same reply at v4 to %x", a, b)
	}
}

// gobPayload returns the bytes a session's encoder sends for v once it has
// sent v's type: the second message of a stream, without its length and
// the process-local type id that open it.
func gobPayload(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	msg := buf.Bytes()
	for range 2 { // the message length, then the type id
		if msg[0] < 0x80 {
			msg = msg[1:]
		} else {
			msg = msg[1+int(-int8(msg[0])):]
		}
	}
	return msg
}
