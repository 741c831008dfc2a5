package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"grminer"
	"grminer/internal/core"
)

// openIncremental opens the -follow engine: single-store, or sharded when
// so.Shards > 0.
func openIncremental(t *testing.T, g *grminer.Graph, opt grminer.Options, so grminer.ShardOptions) *grminer.Engine {
	t.Helper()
	eng, err := grminer.Open(g, grminer.EngineConfig{Mode: grminer.ModeIncremental, Options: opt, Shard: so})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestWriteResults(t *testing.T) {
	g := grminer.ToyDating()
	res, err := core.Mine(g, grminer.Options{MinSupp: 2, MinScore: 0.9, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tsv := filepath.Join(dir, "out.tsv")
	if err := writeResults(res, g, tsv, "tsv"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tsv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "rank\tgr\t") {
		t.Errorf("tsv content: %q", string(data[:20]))
	}
	jsonPath := filepath.Join(dir, "out.json")
	if err := writeResults(res, g, jsonPath, "json"); err != nil {
		t.Fatal(err)
	}
	if err := writeResults(res, g, filepath.Join(dir, "x"), "xml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestParseFollowLine(t *testing.T) {
	e, _, isDel, err := parseFollowLine("3\t7\t1", 1)
	if err != nil || isDel || e.Src != 3 || e.Dst != 7 || len(e.Vals) != 1 || e.Vals[0] != 1 {
		t.Fatalf("parseFollowLine: %+v del=%v, %v", e, isDel, err)
	}
	if _, _, _, err := parseFollowLine("3 7 2 9", 2); err != nil {
		t.Errorf("space-separated line rejected: %v", err)
	}
	// Retractions: the "-" prefix as its own field or glued to the source.
	for _, line := range []string{"- 3 7 1", "-3 7 1", "  -\t3\t7\t1"} {
		_, d, isDel, err := parseFollowLine(line, 1)
		if err != nil || !isDel || d.Src != 3 || d.Dst != 7 || len(d.Vals) != 1 || d.Vals[0] != 1 {
			t.Fatalf("retraction %q: %+v del=%v, %v", line, d, isDel, err)
		}
	}
	// Out-of-range values must error, not wrap through the uint16
	// conversion into a silently valid small value; a lone "-" or a doubly
	// negative source is malformed, not a retraction of a retraction.
	for _, bad := range []string{"3", "3 7", "3 x 1", "a 7 1", "3 7 z", "3 7 1 1",
		"3 7 -65535", "3 7 -1", "3 7 65537", "-", "- 3 7", "--3 7 1", "- -3 7 1"} {
		if _, _, _, err := parseFollowLine(bad, 1); err == nil {
			t.Errorf("malformed line %q accepted", bad)
		}
	}
}

func TestRunFollowStream(t *testing.T) {
	dir := t.TempDir()
	stream := filepath.Join(dir, "edges.stream")
	// Two batches: a blank-line commit, then an EOF commit; comments ignored.
	if err := os.WriteFile(stream, []byte("# new dating edges\n0\t1\t1\n2\t3\t1\n\n4\t5\t1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g := grminer.ToyDating()
	opt := grminer.Options{MinSupp: 2, MinScore: 0.5, K: 5, DynamicFloor: true}
	outPath := filepath.Join(dir, "final.json")
	in, closeIn, err := openFollowStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	defer closeIn()
	eng := openIncremental(t, g, opt, grminer.ShardOptions{})
	if err := runFollow(eng, g, grminer.NhpMetric, in, 0, true, outPath, "json"); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 33 {
		t.Errorf("followed graph has %d edges, want 33", g.NumEdges())
	}
	if _, err := os.Stat(outPath); err != nil {
		t.Errorf("-out not honoured in follow mode: %v", err)
	}
}

// A -follow stream mixing insertions and "-"-prefixed retractions must flow
// through the engine and leave the maintained result equal to a fresh batch
// mine of the surviving graph.
func TestRunFollowRetractionStream(t *testing.T) {
	dir := t.TempDir()
	stream := filepath.Join(dir, "changes.stream")
	// Toy edge 0 -> 1 exists with S=1 (the dating schema's single edge
	// attribute); insert two edges, retract one pre-existing edge and one
	// just-committed edge in a LATER batch (retractions resolve pre-batch).
	content := "0\t1\t1\n2\t3\t1\n\n- 2\t3\t1\n-0 1 1\n4\t5\t1\n"
	if err := os.WriteFile(stream, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	g := grminer.ToyDating()
	before := g.NumLiveEdges()
	in, closeIn, err := openFollowStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	defer closeIn()
	eng := openIncremental(t, g, grminer.Options{MinSupp: 2, MinScore: 0.5, K: 5, DynamicFloor: true}, grminer.ShardOptions{})
	if err := runFollow(eng, g, grminer.NhpMetric, in, 0, true, "", ""); err != nil {
		t.Fatal(err)
	}
	// +3 inserts, -2 retractions.
	if got := g.NumLiveEdges(); got != before+1 {
		t.Fatalf("stream left %d live edges, want %d", got, before+1)
	}
	if c := eng.Cumulative(); c.Edges != 3 || c.Deleted != 2 {
		t.Fatalf("cumulative +%d/-%d, want +3/-2", c.Edges, c.Deleted)
	}
	ref, err := core.Mine(g, eng.Options())
	if err != nil {
		t.Fatal(err)
	}
	got := eng.Result().TopK
	if len(got) != len(ref.TopK) {
		t.Fatalf("follow kept %d GRs, batch mine %d", len(got), len(ref.TopK))
	}
	for i := range got {
		if got[i].GR.Key() != ref.TopK[i].GR.Key() || got[i].Score != ref.TopK[i].Score {
			t.Fatalf("rank %d diverged: %v vs %v", i, got[i], ref.TopK[i])
		}
	}
}

// A retraction of a never-inserted edge must abort the run without mutating
// the graph — the atomic-rejection contract extends to the new syntax.
func TestRunFollowRejectsUnmatchedRetraction(t *testing.T) {
	dir := t.TempDir()
	stream := filepath.Join(dir, "bad.stream")
	if err := os.WriteFile(stream, []byte("0\t1\t1\n- 0\t0\t2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g := grminer.ToyDating()
	edges := g.NumLiveEdges()
	in, closeIn, err := openFollowStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	defer closeIn()
	eng := openIncremental(t, g, grminer.Options{MinSupp: 2, MinScore: 0.5, K: 5}, grminer.ShardOptions{})
	if err := runFollow(eng, g, grminer.NhpMetric, in, 0, false, "", ""); err == nil {
		t.Fatal("unmatched retraction accepted")
	}
	if g.NumLiveEdges() != edges {
		t.Fatalf("graph mutated to %d live edges despite rejection", g.NumLiveEdges())
	}
}

// Malformed streams must abort with an error — a bad line, and a
// well-formed line the schema rejects — without applying the bad batch.
func TestRunFollowRejectsMalformedInput(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"bad-line.stream":   "0\t1\t1\nnot an edge\n",
		"bad-edge.stream":   "0\t1\t9\n",  // edge value out of domain
		"bad-node.stream":   "0\t99\t1\n", // destination out of range
		"bad-fields.stream": "0\t1\n",
	}
	for name, content := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		g := grminer.ToyDating()
		edges := g.NumEdges()
		in, closeIn, err := openFollowStream(path)
		if err != nil {
			t.Fatal(err)
		}
		eng := openIncremental(t, g, grminer.Options{MinSupp: 2, MinScore: 0.5, K: 5}, grminer.ShardOptions{})
		if err := runFollow(eng, g, grminer.NhpMetric, in, 0, false, "", ""); err == nil {
			t.Errorf("%s: accepted", name)
		}
		closeIn()
		if g.NumEdges() != edges {
			t.Errorf("%s: graph mutated to %d edges despite rejection", name, g.NumEdges())
		}
	}
	if _, _, err := openFollowStream(filepath.Join(dir, "missing.stream")); err == nil {
		t.Error("missing stream file accepted")
	}
}

// -follow with -shards routes every streamed batch through the sharded
// incremental engine; the maintained result must match both the
// single-store follow and a fresh batch mine of the grown graph.
func TestRunFollowShardedStream(t *testing.T) {
	dir := t.TempDir()
	stream := filepath.Join(dir, "edges.stream")
	if err := os.WriteFile(stream, []byte("0\t1\t1\n2\t3\t1\n\n4\t5\t1\n6\t7\t1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	opt := grminer.Options{MinSupp: 2, MinScore: 0.5, K: 5, DynamicFloor: true}
	for _, strategy := range []grminer.ShardStrategy{grminer.ShardBySource, grminer.ShardByRHS} {
		g := grminer.ToyDating()
		in, closeIn, err := openFollowStream(stream)
		if err != nil {
			t.Fatal(err)
		}
		eng := openIncremental(t, g, opt, grminer.ShardOptions{Shards: 3, Strategy: strategy})
		if err := runFollow(eng, g, grminer.NhpMetric, in, 0, false, "", ""); err != nil {
			t.Fatal(err)
		}
		closeIn()
		if g.NumEdges() != 34 {
			t.Fatalf("%s: followed graph has %d edges, want 34", strategy, g.NumEdges())
		}
		plan, ok := eng.ShardPlan()
		if !ok {
			t.Fatalf("%s: -shards did not open a sharded engine", strategy)
		}
		total := 0
		for _, n := range plan.Edges {
			total += n
		}
		if total != 34 {
			t.Fatalf("%s: shards hold %d edges, want 34", strategy, total)
		}
		ref, err := core.Mine(g, eng.Options())
		if err != nil {
			t.Fatal(err)
		}
		got := eng.Result().TopK
		if len(got) != len(ref.TopK) {
			t.Fatalf("%s: sharded follow kept %d GRs, batch mine %d", strategy, len(got), len(ref.TopK))
		}
		for i := range got {
			if got[i].GR.Key() != ref.TopK[i].GR.Key() || got[i].Score != ref.TopK[i].Score {
				t.Fatalf("%s: rank %d diverged: %v vs %v", strategy, i, got[i], ref.TopK[i])
			}
		}
	}
}
