package store

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"

	"grminer/internal/gr"
	"grminer/internal/graph"
)

// churnedStore builds a store that has seen the full mutation surface a
// checkpointed shard store can accumulate: subset build, routed appends,
// tombstoning removals (below the compaction threshold so tombstones are
// actually present in the snapshot), posting lists, and an intern
// dictionary with descriptors and GRs interned.
func churnedStore(t *testing.T) (*graph.Graph, *Store) {
	t.Helper()
	schema := dynSchema(t)
	rng := rand.New(rand.NewSource(7))
	g := graph.MustNew(schema, 12)
	for v := 0; v < 12; v++ {
		if err := g.SetNodeValues(v, graph.Value(1+v%3), graph.Value(1+v%4)); err != nil {
			t.Fatal(err)
		}
	}
	var all []int32
	for e := 0; e < 40; e++ {
		id, err := g.AddEdge(rng.Intn(12), rng.Intn(12), graph.Value(1+e%2))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, int32(id))
	}
	// A shard-shaped subset: even edge ids at build time, odd ids routed in
	// later so the store has a tail segment beyond the CSR.
	var seed, tail []int32
	for _, id := range all {
		if id%2 == 0 {
			seed = append(seed, id)
		} else {
			tail = append(tail, id)
		}
	}
	s := BuildSubset(g, seed)
	s.EnablePostings()
	s.AppendEdges(tail)
	if err := s.RemoveEdges([]int32{3, 11, 26}); err != nil {
		t.Fatal(err)
	}
	if s.deadCount != 3 {
		t.Fatalf("compaction fired early (dead=%d); the test wants live tombstones", s.deadCount)
	}
	// Intern through the dictionary so its state is non-trivial.
	d := s.Dict()
	for _, g := range internedGRs() {
		d.GR(g)
	}
	return g, s
}

// internedGRs is the fixture rule set churnedStore interns — and the round
// trip re-interns to prove the restored dictionary hands out known ids.
func internedGRs() []gr.GR {
	return []gr.GR{
		{L: gr.D(0, 1), W: gr.D(0, 2), R: gr.D(1, 3)},
		{L: gr.D(0, 2, 1, 1), W: nil, R: gr.D(0, 1)},
		{L: gr.D(1, 4), W: gr.D(0, 1), R: gr.D(0, 2, 1, 2)},
	}
}

// TestStateRoundTrip pins the checkpoint contract: a store with tombstones,
// a tail segment, posting lists, and a populated intern dictionary survives
// State -> gob -> FromState bit-identically (same arrays, same row ids, same
// interned ids), and the restored posting lists match a from-scratch scan.
func TestStateRoundTrip(t *testing.T) {
	g, s := churnedStore(t)

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s.State()); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var st State
	if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	r, err := FromState(g, st)
	if err != nil {
		t.Fatalf("FromState: %v", err)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("restored store invalid: %v", err)
	}

	// Bit-identical arrays and bookkeeping: compare snapshots field by field
	// (the snapshot covers every persisted field, so this is exhaustive).
	want, got := s.State(), r.State()
	if !reflect.DeepEqual(normalizeState(want), normalizeState(got)) {
		t.Fatalf("restored state differs:\n got %+v\nwant %+v", got, want)
	}
	if r.Postings() == nil {
		t.Fatal("postings flag lost")
	}
	assertPostingsMatchScan(t, r)

	// The restored dictionary hands out the same ids for the same inputs:
	// re-interning the fixture rules must not mint new ids, and each rule
	// must land on the id the original dictionary assigned it.
	if r.Dict().NumDescs() != s.Dict().NumDescs() || r.Dict().NumGRs() != s.Dict().NumGRs() {
		t.Fatalf("dict id spaces differ: descs %d/%d, grs %d/%d",
			r.Dict().NumDescs(), s.Dict().NumDescs(), r.Dict().NumGRs(), s.Dict().NumGRs())
	}
	for _, rule := range internedGRs() {
		if got, want := r.Dict().GR(rule), s.Dict().GR(rule); got != want {
			t.Fatalf("rule %v interned as %d after restore, was %d", rule, got, want)
		}
	}
	if r.Dict().NumGRs() != s.Dict().NumGRs() {
		t.Fatal("re-interning known rules minted fresh ids after restore")
	}

	// The restored store keeps working: routed appends and removals behave,
	// and the high-water mark carried over.
	if r.ingested != s.ingested {
		t.Fatalf("high-water mark %d, want %d", r.ingested, s.ingested)
	}
	id, err := g.AddEdge(0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rows := r.AppendEdges([]int32{int32(id)}); len(rows) != 1 {
		t.Fatalf("post-restore AppendEdges ingested %v", rows)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("post-restore mutation broke the store: %v", err)
	}
}

// normalizeState maps empty slices/maps to nil so a gob round trip (which
// collapses empty to nil) compares equal to the live snapshot.
func normalizeState(st State) State {
	if len(st.EVals) == 0 {
		st.EVals = nil
	}
	if len(st.Dead) == 0 {
		st.Dead = nil
	}
	if len(st.Dict.Descs) == 0 {
		st.Dict.Descs = nil
	}
	if len(st.Dict.GRs) == 0 {
		st.Dict.GRs = nil
	}
	return st
}

// TestFromStateRejectsCorruptSnapshots pins the structural checks: a blob
// whose arrays disagree must be refused, not installed.
func TestFromStateRejectsCorruptSnapshots(t *testing.T) {
	g, s := churnedStore(t)
	base := s.State()

	bad := base
	bad.ESrc = bad.ESrc[:len(bad.ESrc)-1]
	if _, err := FromState(g, bad); err == nil {
		t.Error("truncated ESrc accepted")
	}
	bad = base
	bad.Dead = bad.Dead[:2]
	if _, err := FromState(g, bad); err == nil {
		t.Error("short tombstone array accepted")
	}
	bad = base
	bad.DeadCount = len(bad.EID) + 1
	if _, err := FromState(g, bad); err == nil {
		t.Error("impossible dead count accepted")
	}
	bad = base
	bad.LRowOf = bad.LRowOf[:1]
	if _, err := FromState(g, bad); err == nil {
		t.Error("short node row map accepted")
	}

	// Corruptions that used to install, or to panic inside the restore:
	// each edits one copied array.
	for _, tc := range []struct {
		name string
		edit func(*State)
	}{
		{"edge row past the LArray", func(st *State) { st.ESrc = append([]int32(nil), st.ESrc...); st.ESrc[0] = 1 << 20 }},
		{"edge id past the graph", func(st *State) { st.EID = append([]int32(nil), st.EID...); st.EID[0] = -1 }},
		{"negative high-water mark", func(st *State) { st.Ingested = -1 }},
		{"LArray row with another node's values", func(st *State) {
			st.LVals = append([]graph.Value(nil), st.LVals...)
			st.LVals[0]++
		}},
		{"row map disowning a row", func(st *State) {
			st.RRowOf = append([]int32(nil), st.RRowOf...)
			st.RRowOf[st.RNode[0]] = -1
		}},
		{"edge value outside the domain", func(st *State) {
			st.EVals = append([]graph.Value(nil), st.EVals...)
			st.EVals[0] = 60000
		}},
	} {
		bad := base
		tc.edit(&bad)
		if _, err := FromState(g, bad); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}
