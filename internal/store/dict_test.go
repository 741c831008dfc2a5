package store

import (
	"math/rand"
	"testing"

	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/intern"
)

// TestDictStableUnderChurn is the intern stability property at the store
// level: the dictionary Dict() hands out survives Append, deletions,
// and rebuild-compaction — the same object, with every previously interned
// descriptor and GR keeping its id and the id space only ever growing (ids
// are never reused for a different (attribute, value) path). This is what
// lets the incremental engine keep slice tables indexed by DescID/GRID
// across arbitrary batch sequences without remapping.
func TestDictStableUnderChurn(t *testing.T) {
	schema := dynSchema(t)
	r := rand.New(rand.NewSource(11))
	n := 10
	g := graph.MustNew(schema, n)
	for v := 0; v < n; v++ {
		if err := g.SetNodeValues(v, graph.Value(1+r.Intn(3)), graph.Value(1+r.Intn(4))); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < 120; e++ {
		if _, err := g.AddEdge(r.Intn(n), r.Intn(n), graph.Value(1+r.Intn(2))); err != nil {
			t.Fatal(err)
		}
	}
	s := Build(g)
	s.EnablePostings()
	d := s.Dict()
	if s.Dict() != d {
		t.Fatal("Dict() is not idempotent")
	}

	randDesc := func(attrs []graph.Attribute) gr.Descriptor {
		var desc gr.Descriptor
		for a := range attrs {
			if r.Intn(2) == 0 {
				desc = desc.With(a, graph.Value(1+r.Intn(attrs[a].Domain)))
			}
		}
		return desc
	}
	type interned struct {
		g  gr.GR
		id intern.GRID
	}
	var pinned []interned
	intern1 := func() {
		x := gr.GR{L: randDesc(schema.Node), W: randDesc(schema.Edge), R: randDesc(schema.Node)}
		pinned = append(pinned, interned{x, d.GR(x)})
	}
	for i := 0; i < 20; i++ {
		intern1()
	}

	live := append([]int32(nil), s.AllEdges()...)
	compactions := 0
	for step := 0; step < 40; step++ {
		descsBefore, grsBefore := d.NumDescs(), d.NumGRs()

		del := make([]int32, 0, 4)
		for i := 0; i < 1+r.Intn(6) && len(live) > 0; i++ {
			j := r.Intn(len(live))
			del = append(del, live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		before := s.NumRows()
		for _, row := range del {
			if err := g.RemoveEdge(int(s.EdgeID(row))); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		if err := s.RemoveEdges(del); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if s.NumRows() < before {
			compactions++
			live = s.AllEdgesInto(live)
		}
		for i := 0; i < r.Intn(5); i++ {
			if _, err := g.AddEdge(r.Intn(n), r.Intn(n), graph.Value(1+r.Intn(2))); err != nil {
				t.Fatal(err)
			}
		}
		live = append(live, s.Append()...)

		// Mutations must not touch the dictionary at all...
		if s.Dict() != d {
			t.Fatalf("step %d: store swapped its dictionary", step)
		}
		if d.NumDescs() != descsBefore || d.NumGRs() != grsBefore {
			t.Fatalf("step %d: mutation minted ids (%d->%d descs, %d->%d GRs)",
				step, descsBefore, d.NumDescs(), grsBefore, d.NumGRs())
		}
		// ...every pinned GR keeps its first id...
		for _, p := range pinned {
			if got := d.GR(p.g); got != p.id {
				t.Fatalf("step %d: GR %s re-interned to %d, first id was %d", step, p.g.Key(), got, p.id)
			}
		}
		// ...and fresh interning still works mid-churn.
		intern1()
	}
	if compactions == 0 {
		t.Fatal("churn never triggered a compaction — dict survival untested")
	}
}

// TestRestoreDict pins the hook a worker checkpoint restore installs its
// dictionary through: a store rebuilt from the churned store's live edges,
// given the churned dictionary's state, hands out the ids it recorded —
// for known GRs and for the next new one alike. A corrupt state is refused
// and leaves the store without a dictionary; restoring over an existing
// one panics.
func TestRestoreDict(t *testing.T) {
	g, s := churnedStore(t)
	d := s.Dict()
	r := Build(g)
	if err := r.RestoreDict(intern.DictState{Descs: []uint64{1 << 40}}); err == nil {
		t.Fatal("corrupt dictionary state accepted")
	}
	if r.dict != nil {
		t.Fatal("a refused state left a dictionary behind")
	}
	if err := r.RestoreDict(d.State()); err != nil {
		t.Fatal(err)
	}
	rd := r.Dict()
	for _, x := range internedGRs() {
		if got, want := rd.GR(x), d.GR(x); got != want {
			t.Errorf("GR %s restored to id %d, want %d", x.Key(), got, want)
		}
	}
	fresh := gr.GR{L: gr.D(0, 3), R: gr.D(1, 1)}
	if got, want := rd.GR(fresh), d.GR(fresh); got != want {
		t.Errorf("new GR interned as %d after restore, %d before", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("RestoreDict over an existing dictionary did not panic")
		}
	}()
	_ = r.RestoreDict(d.State())
}
