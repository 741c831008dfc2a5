package rpc_test

import (
	"encoding/gob"
	"errors"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"grminer/internal/core"
	"grminer/internal/graph"
	"grminer/internal/rpc"
)

// fastFleet keeps failover tests quick: real retry/backoff code path,
// millisecond budgets.
func fastFleet(addrs, standbys []string) *rpc.Fleet {
	return rpc.NewFleet(addrs, rpc.FleetOptions{
		Standbys:    standbys,
		DialRetries: 2,
		DialBackoff: 5 * time.Millisecond,
		BackoffCap:  20 * time.Millisecond,
	})
}

// startMuxWorker returns the address of one daemon multiplexing `capacity`
// worker slots. When GRMINER_TEST_MUX_WORKER names an externally launched
// `shardd -shards N` (the CI distributed-gate does this), that daemon is
// used; otherwise an in-process ServeShards is spun up.
func startMuxWorker(t *testing.T, capacity int) string {
	t.Helper()
	if env := strings.TrimSpace(os.Getenv("GRMINER_TEST_MUX_WORKER")); env != "" {
		return env
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rpc.ServeShards(l, capacity, nil) //nolint:errcheck // closed by cleanup
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

// TestRemoteMultiplexedOracle proves the v3 shard-addressed protocol exact:
// 1, 2, 4, and 8 shards multiplexed behind ONE daemon of capacity 8 must
// each mine results identical to the single-store reference, and a layout
// one shard beyond the advertised capacity must be refused client-side.
func TestRemoteMultiplexedOracle(t *testing.T) {
	g := randomGraph(11, true, true)
	opt := core.Options{MinSupp: 2, MinScore: 0.3, K: 10, DynamicFloor: true}
	ref, err := core.Mine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	addr := startMuxWorker(t, 8)
	for _, shards := range []int{1, 2, 4, 8} {
		fleet := fastFleet([]string{addr}, nil)
		sc, err := core.NewShardCoordinatorFrom(g, opt, core.ShardOptions{Shards: shards}, fleet)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		res, err := sc.Mine()
		sc.Close()
		fleet.Close()
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		assertSameResults(t, "mux", res.TopK, ref.TopK)
	}

	// One slot past the daemon's advertised capacity must fail at build.
	fleet := fastFleet([]string{addr}, nil)
	defer fleet.Close()
	if _, err := core.NewShardCoordinatorFrom(g, opt, core.ShardOptions{Shards: 9}, fleet); err == nil ||
		!strings.Contains(err.Error(), "slots") {
		t.Fatalf("9 shards on a capacity-8 daemon: %v", err)
	}
}

// TestRemoteMixedMultiplexOracle spreads 4 shards over two capacity-2
// daemons — the mixed shape the runbook deploys — and checks the oracle.
func TestRemoteMixedMultiplexOracle(t *testing.T) {
	g := randomGraph(12, false, true)
	opt := core.Options{MinSupp: 2, MinScore: 0.3, K: 10}
	a := startMuxWorker(t, 2)
	b := func() string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go rpc.ServeShards(l, 2, nil) //nolint:errcheck
		t.Cleanup(func() { l.Close() })
		return l.Addr().String()
	}()
	fleet := fastFleet([]string{a, b}, nil)
	defer fleet.Close()
	sc, err := core.NewShardCoordinatorFrom(g, opt, core.ShardOptions{Shards: 4}, fleet)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	res, err := sc.Mine()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Mine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "mixed-mux", res.TopK, ref.TopK)
}

// killableServer is an in-process daemon whose crash can be forced: Kill
// severs the listener and every accepted session connection.
type killableServer struct {
	addr string
	l    net.Listener
	mu   sync.Mutex
	cs   []net.Conn
}

func (ks *killableServer) Accept() (net.Conn, error) {
	c, err := ks.l.Accept()
	if err != nil {
		return nil, err
	}
	ks.mu.Lock()
	ks.cs = append(ks.cs, c)
	ks.mu.Unlock()
	return c, nil
}

func (ks *killableServer) Close() error   { return ks.l.Close() }
func (ks *killableServer) Addr() net.Addr { return ks.l.Addr() }

func (ks *killableServer) Kill() {
	ks.l.Close()
	ks.mu.Lock()
	for _, c := range ks.cs {
		c.Close()
	}
	ks.cs = nil
	ks.mu.Unlock()
}

func startKillable(t *testing.T, capacity int) *killableServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ks := &killableServer{addr: l.Addr().String(), l: l}
	go rpc.ServeShards(ks, capacity, nil) //nolint:errcheck // killed by cleanup
	t.Cleanup(ks.Kill)
	return ks
}

// TestRemoteFailoverReplay is the seeded permanent-loss test: a daemon
// multiplexing two of four shards dies between ingest batches, the
// coordinator must rebuild both dead shards on the standby and replay their
// logged batches, and every maintained top-k — before and after the kill —
// must equal a fresh single-store mine (pool and top-k equality with an
// unkilled oracle).
func TestRemoteFailoverReplay(t *testing.T) {
	seed := int64(21)
	r := rand.New(rand.NewSource(seed))
	g := randomGraph(seed, true, false)
	victim := startKillable(t, 2)
	survivor := startKillable(t, 2)
	standby := startKillable(t, 2)

	fleet := fastFleet([]string{victim.addr, survivor.addr}, []string{standby.addr})
	defer fleet.Close()
	opt := core.Options{MinSupp: 2, MinScore: 0.3, K: 8, DynamicFloor: true}
	inc, err := core.NewIncrementalShardedFrom(g, opt, core.ShardOptions{Shards: 4}, fleet)
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Close()

	const killAfter = 2
	for batch := 0; batch < 5; batch++ {
		if batch == killAfter {
			victim.Kill()
		}
		edges := make([]core.EdgeInsert, 3+r.Intn(5))
		for i := range edges {
			edges[i] = core.EdgeInsert{
				Src:  r.Intn(g.NumNodes()),
				Dst:  r.Intn(g.NumNodes()),
				Vals: []graph.Value{graph.Value(r.Intn(3))},
			}
		}
		res, _, err := inc.ApplyBatch(core.Batch{Ins: edges})
		if err != nil {
			t.Fatalf("batch %d (kill after %d): %v", batch, killAfter, err)
		}
		ref, err := core.Mine(g, inc.Options())
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "failover", res.TopK, ref.TopK)
	}

	// Both of the victim's slots (shards 0 and 2 under i-mod-n placement)
	// must have been replaced onto the standby and replayed.
	var replaced int
	for _, h := range inc.FleetHealth() {
		if !h.Live {
			t.Errorf("shard %d not live after recovery: %+v", h.Shard, h)
		}
		if h.Replacements > 0 {
			replaced++
			if h.Addr != standby.addr {
				t.Errorf("shard %d replaced onto %s, want the standby %s", h.Shard, h.Addr, standby.addr)
			}
			// The log holds only the routed sub-batches this shard actually
			// ingested (empty ones are skipped), so the replay count is
			// bounded by — not equal to — the batches applied pre-kill.
			if h.ReplayedBatches < 1 || h.ReplayedBatches > killAfter {
				t.Errorf("shard %d replayed %d batches, want 1..%d", h.Shard, h.ReplayedBatches, killAfter)
			}
		}
	}
	if replaced != 2 {
		t.Errorf("%d shards replaced, want the victim's 2", replaced)
	}
}

// TestErrorTaxonomy pins the two error classes of DESIGN.md §9 at the wire:
// an in-band application error leaves the worker alive and is NOT a
// TransportError; a connection severed mid-reply (injected partial write,
// then close) IS one, and reports the worker lost.
func TestErrorTaxonomy(t *testing.T) {
	// In-band: offering before building is the daemon's error string, with
	// the session (and worker) intact.
	addr := startWorkers(t, 1)[0]
	c, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	slot, err := c.Slot()
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = slot.Offer(nil)
	var te *rpc.TransportError
	if err == nil || errors.As(err, &te) {
		t.Fatalf("offer-before-build: want a plain in-band error, got %v", err)
	}
	if !strings.Contains(err.Error(), "before build") {
		t.Fatalf("in-band error lost its message: %v", err)
	}

	// Severed mid-reply: a peer that handshakes, reads the request, writes a
	// partial (truncated) reply, and drops the connection.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dec := gob.NewDecoder(conn)
		var hello rpc.Hello
		if dec.Decode(&hello) != nil {
			return
		}
		if gob.NewEncoder(conn).Encode(rpc.HelloReply{OK: true, Shards: 1}) != nil {
			return
		}
		var req rpc.Request
		if dec.Decode(&req) != nil {
			return
		}
		conn.Write([]byte{0x07, 0x01}) //nolint:errcheck // deliberate partial frame
	}()
	c2, err := rpc.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	slot2, err := c2.Slot()
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = slot2.Offer(nil)
	if !errors.As(err, &te) {
		t.Fatalf("partial reply: want *rpc.TransportError, got %v", err)
	}
	if !te.WorkerLost() || te.Unwrap() == nil {
		t.Fatalf("TransportError not marked worker-lost: %+v", te)
	}
}

// TestRebuildSkipsMismatchedStandby: a standby that rejects the handshake
// (version skew mid-rolling-upgrade) must not absorb the replacement — the
// rebuild falls through to the next candidate.
func TestRebuildSkipsMismatchedStandby(t *testing.T) {
	// A permanently version-mismatched "standby": handshakes with an error
	// for every connection.
	bad, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	go func() {
		for {
			conn, err := bad.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				var hello rpc.Hello
				gob.NewDecoder(conn).Decode(&hello)                                               //nolint:errcheck
				gob.NewEncoder(conn).Encode(rpc.HelloReply{Err: "protocol mismatch: stale peer"}) //nolint:errcheck
			}(conn)
		}
	}()

	victim := startKillable(t, 1)
	good := startKillable(t, 1)
	fleet := fastFleet([]string{victim.addr}, []string{bad.Addr().String(), good.addr})
	defer fleet.Close()

	g := randomGraph(31, true, true)
	inc, err := core.NewIncrementalShardedFrom(g, core.Options{MinSupp: 2, MinScore: 0.3, K: 5},
		core.ShardOptions{Shards: 1}, fleet)
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Close()

	if _, _, err := inc.ApplyBatch(core.Batch{Ins: []core.EdgeInsert{{Src: 0, Dst: 1, Vals: []graph.Value{1}}}}); err != nil {
		t.Fatal(err)
	}
	victim.Kill()
	res, _, err := inc.ApplyBatch(core.Batch{Ins: []core.EdgeInsert{{Src: 1, Dst: 2, Vals: []graph.Value{1}}}})
	if err != nil {
		t.Fatalf("apply after kill with a mismatched first standby: %v", err)
	}
	ref, err := core.Mine(g, inc.Options())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "skip-bad-standby", res.TopK, ref.TopK)
	h := inc.FleetHealth()
	if len(h) != 1 || h[0].Addr != good.addr || h[0].Replacements != 1 {
		t.Fatalf("replacement did not land on the healthy standby: %+v", h)
	}
}
