package cli

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"grminer"
)

func TestLoadGraphBuiltins(t *testing.T) {
	toy, err := LoadGraph("toy", "", "", "", 0, 0, 1)
	if err != nil || toy.NumNodes() != 14 {
		t.Fatalf("toy: %v", err)
	}
	pokec, err := LoadGraph("pokec", "", "", "", 500, 4, 1)
	if err != nil || pokec.NumNodes() != 500 || pokec.NumEdges() != 2000 {
		t.Fatalf("pokec: %v (%d nodes %d edges)", err, pokec.NumNodes(), pokec.NumEdges())
	}
	if _, err := LoadGraph("nope", "", "", "", 0, 0, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := LoadGraph("", "", "", "", 0, 0, 1); err == nil {
		t.Error("missing inputs accepted")
	}
}

func TestLoadGraphFiles(t *testing.T) {
	dir := t.TempDir()
	g := grminer.ToyDating()
	sp := filepath.Join(dir, "s.txt")
	np := filepath.Join(dir, "n.tsv")
	ep := filepath.Join(dir, "e.tsv")
	if err := grminer.SaveFiles(g, sp, np, ep); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGraph("", sp, np, ep, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != 30 {
		t.Errorf("loaded %d edges", got.NumEdges())
	}
}

// Batch loading must fail loudly on malformed edge files instead of mining
// the partial graph.
func TestLoadGraphRejectsMalformedEdges(t *testing.T) {
	dir := t.TempDir()
	g := grminer.ToyDating()
	sp := filepath.Join(dir, "s.txt")
	np := filepath.Join(dir, "n.tsv")
	ep := filepath.Join(dir, "e.tsv")
	if err := grminer.SaveFiles(g, sp, np, ep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ep)
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]string{
		"truncated": string(data) + "5\t6\n",
		"garbage":   string(data) + "5\tsix\t1\n",
		"domain":    string(data) + "5\t6\t42\n",
		"wrap":      string(data) + "5\t6\t-65535\n", // would wrap to a valid 1
	} {
		bad := filepath.Join(dir, name+".tsv")
		if err := os.WriteFile(bad, []byte(corrupt), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadGraph("", sp, np, bad, 0, 0, 1); err == nil {
			t.Errorf("%s edge file accepted", name)
		}
	}
}

func TestParseWorkers(t *testing.T) {
	for _, tc := range []struct {
		in     string
		remote []string
		err    string
	}{
		{in: ""},
		{in: "  "},
		{in: "0", err: "-workers 0: the flag takes shardd addresses (host:port,...); mining width follows GOMAXPROCS"},
		{in: " 4 ", err: "-workers 4: the flag takes shardd addresses"},
		{in: "-1", err: "-workers -1: the flag takes shardd addresses"},
		{in: "127.0.0.1:9401", remote: []string{"127.0.0.1:9401"}},
		{in: " a:1 , b:2 ,", remote: []string{"a:1", "b:2"}},
		{in: ","},
		{in: "a:1,b", err: `-workers address "b": want host:port`},
		{in: "four", err: `-workers address "four": want host:port`},
	} {
		remote, err := ParseWorkers(tc.in)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("ParseWorkers(%q) error %v, want one containing %q", tc.in, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(remote, tc.remote) {
			t.Errorf("ParseWorkers(%q) = %q, %v; want %q", tc.in, remote, err, tc.remote)
		}
	}
}

func TestParseAddrList(t *testing.T) {
	for _, tc := range []struct {
		in    string
		addrs []string
		err   string
	}{
		{in: ""},
		{in: " , ,"},
		{in: "h:1", addrs: []string{"h:1"}},
		{in: " h:1 ,, [::1]:2 ", addrs: []string{"h:1", "[::1]:2"}},
		{in: "h:1,h", err: `-standby address "h": want host:port`},
		{in: "4", err: `-standby address "4": want host:port`},
	} {
		addrs, err := ParseAddrList("-standby", tc.in)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("ParseAddrList(%q) error %v, want %q", tc.in, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(addrs, tc.addrs) {
			t.Errorf("ParseAddrList(%q) = %q, %v; want %q", tc.in, addrs, err, tc.addrs)
		}
	}
}

func TestCheckShardFlags(t *testing.T) {
	addrs := []string{"127.0.0.1:9401"}
	for _, tc := range []struct {
		name     string
		args     []string
		remote   []string
		standbys []string
		shards   int
		chk      int
		err      string
	}{
		{name: "single store", chk: 8},
		{name: "sharded", args: []string{"-shard-by", "rhs"}, shards: 2, chk: 8},
		{name: "remote", args: []string{"-shard-by", "rhs"}, remote: addrs, standbys: addrs, chk: 0},
		{name: "default -shard-by", args: []string{"-shard-by", "src"}, chk: 8, err: "-shard-by has no effect"},
		{name: "-shard-by alone", args: []string{"-shard-by", "rhs"}, chk: 8, err: "-shard-by has no effect"},
		{name: "-standby alone", standbys: addrs, shards: 2, chk: 8, err: "-standby needs remote shards"},
		{name: "negative interval", shards: 2, chk: -1, err: "-checkpoint-interval must be >= 0"},
	} {
		fs := flag.NewFlagSet(tc.name, flag.ContinueOnError)
		fs.String("shard-by", "src", "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := CheckShardFlags(fs, tc.remote, tc.standbys, tc.shards, tc.chk)
		if tc.err == "" && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.err)
		}
	}
}

func TestCheckpointInterval(t *testing.T) {
	for in, want := range map[int]int{0: -1, 1: 1, 8: 8} {
		if got := CheckpointInterval(in); got != want {
			t.Errorf("CheckpointInterval(%d) = %d, want %d", in, got, want)
		}
	}
}
