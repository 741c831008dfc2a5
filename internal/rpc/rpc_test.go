package rpc_test

import (
	"encoding/gob"
	"errors"
	"math/rand"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"grminer/internal/core"
	"grminer/internal/gr"
	"grminer/internal/graph"
	"grminer/internal/metrics"
	"grminer/internal/rpc"
)

// startWorkers returns n worker addresses. When GRMINER_TEST_WORKERS lists
// at least n externally launched shardd daemons (the CI distributed-gate
// does this), those are used; otherwise in-process servers are spun up on
// loopback ports — same protocol, same code path, no subprocesses.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	if env := os.Getenv("GRMINER_TEST_WORKERS"); env != "" {
		var addrs []string
		for _, a := range strings.Split(env, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) >= n {
			return addrs[:n]
		}
		t.Fatalf("GRMINER_TEST_WORKERS lists %d addresses, test needs %d", len(addrs), n)
	}
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		go rpc.ServeShards(l, 1, nil) //nolint:errcheck // closed by cleanup
		t.Cleanup(func() { l.Close() })
	}
	return addrs
}

// randomGraph mirrors the core oracle fixture: small attributed graphs with
// null values and mixed homophily designations.
func randomGraph(seed int64, homA, homB bool) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	schema, err := graph.NewSchema(
		[]graph.Attribute{
			{Name: "A", Domain: 3, Homophily: homA},
			{Name: "B", Domain: 2, Homophily: homB},
		},
		[]graph.Attribute{{Name: "W", Domain: 2}},
	)
	if err != nil {
		panic(err)
	}
	n := 6 + r.Intn(10)
	g := graph.MustNew(schema, n)
	for v := 0; v < n; v++ {
		if err := g.SetNodeValues(v, graph.Value(r.Intn(4)), graph.Value(r.Intn(3))); err != nil {
			panic(err)
		}
	}
	m := 10 + r.Intn(40)
	for e := 0; e < m; e++ {
		if _, err := g.AddEdge(r.Intn(n), r.Intn(n), graph.Value(r.Intn(3))); err != nil {
			panic(err)
		}
	}
	return g
}

var oracleThresholds = map[string]float64{
	"nhp": 0.3, "conf": 0.3, "laplace": 0.3, "gain": 0,
	"piatetsky-shapiro": 0, "conviction": 1.0, "lift": 1.05,
}

func assertSameResults(t *testing.T, label string, got, want []gr.Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].GR.Key() != want[i].GR.Key() {
			t.Fatalf("%s: rank %d: got %s want %s", label, i, got[i].GR.Key(), want[i].GR.Key())
		}
		if got[i].Supp != want[i].Supp || got[i].Score != want[i].Score || got[i].Conf != want[i].Conf {
			t.Fatalf("%s: rank %d (%s): got supp=%d score=%v conf=%v, want supp=%d score=%v conf=%v",
				label, i, got[i].GR.Key(),
				got[i].Supp, got[i].Score, got[i].Conf,
				want[i].Supp, want[i].Score, want[i].Conf)
		}
	}
}

// TestRemoteShardedOracle is the distributed half of the equivalence gate:
// mining over 2-4 shardd workers behind the wire protocol must return
// results identical to a single-store mine, for every metric, both floor
// modes, and both routing strategies. Worker counts and strategies cycle
// across the metric/floor grid so the full range is exercised without
// mining every combination.
func TestRemoteShardedOracle(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	strategies := []graph.ShardStrategy{graph.ShardBySource, graph.ShardByRHS}
	for _, seed := range seeds {
		g := randomGraph(seed, seed%2 == 0, seed%3 != 0)
		cycle := 0
		for _, m := range metrics.All() {
			for _, dyn := range []bool{false, true} {
				cycle++
				workers := 2 + cycle%3 // 2..4
				strategy := strategies[cycle%2]
				opt := core.Options{
					MinSupp: 2, MinScore: oracleThresholds[m.Name], K: 10,
					DynamicFloor: dyn, Metric: m,
				}
				addrs := startWorkers(t, workers)
				sc, err := core.NewShardCoordinatorFrom(g, opt,
					core.ShardOptions{Shards: workers, Strategy: strategy}, rpc.NewFleet(addrs, rpc.FleetOptions{}))
				if err != nil {
					t.Fatal(err)
				}
				res, err := sc.Mine()
				if err != nil {
					t.Fatal(err)
				}
				ref, err := core.Mine(g, sc.Options())
				sc.Close()
				if err != nil {
					t.Fatal(err)
				}
				label := m.Name
				if dyn {
					label += "-dynamic"
				}
				t.Logf("%s workers=%d by=%s offers=%d round2=%d", label, workers, strategy,
					res.Stats.ShardOffers, res.Stats.ExactCountRequests)
				assertSameResults(t, label, res.TopK, ref.TopK)
			}
		}
	}
}

// TestRemoteIncrementalOracle streams random batches through the remote
// sharded incremental engine: after every batch, the maintained top-k must
// equal a fresh single-store mine of the grown graph — worker-side pool
// maintenance notwithstanding.
func TestRemoteIncrementalOracle(t *testing.T) {
	mets := []metrics.Metric{metrics.NhpMetric, metrics.LiftMetric}
	if testing.Short() {
		mets = mets[:1]
	}
	for mi, m := range mets {
		for _, dyn := range []bool{false, true} {
			seed := int64(100 + mi)
			r := rand.New(rand.NewSource(seed))
			g := randomGraph(seed, true, mi%2 == 0)
			workers := 2 + (mi+boolInt(dyn))%3
			addrs := startWorkers(t, workers)
			opt := core.Options{
				MinSupp: 2, MinScore: oracleThresholds[m.Name], K: 8,
				DynamicFloor: dyn, Metric: m,
			}
			inc, err := core.NewIncrementalShardedFrom(g, opt,
				core.ShardOptions{Shards: workers}, rpc.NewFleet(addrs, rpc.FleetOptions{}))
			if err != nil {
				t.Fatal(err)
			}
			for batch := 0; batch < 4; batch++ {
				edges := make([]core.EdgeInsert, 1+r.Intn(6))
				for i := range edges {
					edges[i] = core.EdgeInsert{
						Src:  r.Intn(g.NumNodes()),
						Dst:  r.Intn(g.NumNodes()),
						Vals: []graph.Value{graph.Value(r.Intn(3))},
					}
				}
				res, _, err := inc.ApplyBatch(core.Batch{Ins: edges})
				if err != nil {
					t.Fatal(err)
				}
				ref, err := core.Mine(g, inc.Options())
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, m.Name, res.TopK, ref.TopK)
			}
			inc.Close()
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestRemoteBatchRejectedAtomically: a batch with one malformed edge must
// be rejected before any worker state changes, exactly like the in-process
// engines.
func TestRemoteBatchRejectedAtomically(t *testing.T) {
	g := randomGraph(7, true, true)
	addrs := startWorkers(t, 2)
	inc, err := core.NewIncrementalShardedFrom(g, core.Options{MinSupp: 2, MinScore: 0.3, K: 5},
		core.ShardOptions{Shards: 2}, rpc.NewFleet(addrs, rpc.FleetOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Close()
	before := g.NumEdges()
	prev := inc.Result().TopK
	bad := []core.EdgeInsert{
		{Src: 0, Dst: 1, Vals: []graph.Value{1}},
		{Src: 0, Dst: g.NumNodes() + 5, Vals: []graph.Value{1}}, // out of range
	}
	if _, _, err := inc.ApplyBatch(core.Batch{Ins: bad}); err == nil {
		t.Fatal("malformed batch accepted")
	}
	if g.NumEdges() != before {
		t.Fatalf("rejected batch grew the graph: %d -> %d edges", before, g.NumEdges())
	}
	res, err := core.Mine(g, inc.Options())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "after-reject", inc.Result().TopK, res.TopK)
	assertSameResults(t, "after-reject-prev", inc.Result().TopK, prev)
}

// serveOnce runs one ServeShards loop on a fresh listener and reports its exit
// error — the daemon-fatal path the handshake tests assert.
func serveOnce(t *testing.T) (addr string, errCh chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errCh = make(chan error, 1)
	go func() { errCh <- rpc.ServeShards(l, 1, nil) }()
	t.Cleanup(func() { l.Close() })
	return l.Addr().String(), errCh
}

func waitErr(t *testing.T, ch chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit")
		return nil
	}
}

// A version-mismatched peer must get a descriptive rejection AND kill the
// daemon (non-zero exit for shardd) — stale workers must not linger.
func TestHandshakeVersionMismatch(t *testing.T) {
	addr, errCh := serveOnce(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := gob.NewEncoder(conn).Encode(rpc.Hello{Magic: rpc.Magic, Version: rpc.Version + 7}); err != nil {
		t.Fatal(err)
	}
	var rep rpc.HelloReply
	if err := gob.NewDecoder(conn).Decode(&rep); err != nil {
		t.Fatalf("no handshake reply: %v", err)
	}
	if rep.OK || !strings.Contains(rep.Err, "mismatch") {
		t.Fatalf("mismatched version not rejected: %+v", rep)
	}
	if err := waitErr(t, errCh); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("server survived a version mismatch: %v", err)
	}
}

// A peer that dials and vanishes without completing the handshake — a
// coordinator crashing mid-dial, a port scanner — must NOT kill the daemon:
// the session ends and the next coordinator is served normally. Only
// protocol violations (decodable garbage, version skew) are daemon-fatal.
func TestHandshakeAbortSurvived(t *testing.T) {
	addr, errCh := serveOnce(t)

	// Connect and slam the door without sending a byte (clean EOF), then
	// again with a truncated gob frame (unexpected EOF).
	for _, partial := range [][]byte{nil, {0x01}} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if len(partial) > 0 {
			if _, err := conn.Write(partial); err != nil {
				t.Fatal(err)
			}
		}
		conn.Close()
	}

	// The daemon must still be alive and complete a real handshake.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := gob.NewEncoder(conn).Encode(rpc.Hello{Magic: rpc.Magic, Version: rpc.Version}); err != nil {
		t.Fatal(err)
	}
	var rep rpc.HelloReply
	if err := gob.NewDecoder(conn).Decode(&rep); err != nil {
		t.Fatalf("daemon died after an aborted handshake: %v", err)
	}
	if !rep.OK {
		t.Fatalf("healthy handshake rejected after aborted peers: %+v", rep)
	}

	select {
	case err := <-errCh:
		t.Fatalf("server exited on a dropped connection: %v", err)
	default:
	}
}

// A present foreign client — one that stays connected and speaks garbage
// instead of a handshake — must kill the daemon. (A peer that *disconnects*
// mid-garbage is indistinguishable from a crashed coordinator and only ends
// the session; TestHandshakeAbortSurvived covers that side of the line.)
func TestHandshakeMalformed(t *testing.T) {
	addr, errCh := serveOnce(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A complete frame of non-gob bytes: the first byte is read as the
	// message length, so pad well past it to let the decoder fail on
	// content rather than block waiting for more.
	if _, err := conn.Write([]byte(strings.Repeat("GET / HTTP/1.1\r\n\r\n", 20))); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, errCh); err == nil || !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("server survived a malformed handshake: %v", err)
	}
}

// The coordinator side must fail fast and descriptively on a peer that
// rejects the handshake, instead of hanging.
func TestDialSurfacesMismatch(t *testing.T) {
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
		var hello rpc.Hello
		gob.NewDecoder(conn).Decode(&hello)                                         //nolint:errcheck
		gob.NewEncoder(conn).Encode(rpc.HelloReply{Err: "protocol mismatch: nope"}) //nolint:errcheck
	}()
	start := time.Now()
	_, err = rpc.Dial(l.Addr().String())
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("mismatch not surfaced: %v", err)
	}
	if time.Since(start) > rpc.DialTimeout {
		t.Fatalf("Dial took %v — hung past its budget", time.Since(start))
	}
}

// A silent peer (accepts, never answers) must not hang Dial.
func TestDialDoesNotHangOnSilentPeer(t *testing.T) {
	const timeout = 200 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		<-done // never reply
	}()
	start := time.Now()
	if _, err := rpc.DialWithin(l.Addr().String(), timeout); err == nil {
		t.Fatal("Dial succeeded against a silent peer")
	}
	if d := time.Since(start); d > timeout+2*time.Second {
		t.Fatalf("Dial hung %v on a silent peer", d)
	}
}

// A daemon that completes the handshake and then never answers must not
// hang a fleet call: FleetOptions.OpTimeout bounds the round trip, and the
// timed-out call surfaces as worker loss, which is what engages failover.
func TestFleetOpTimeoutIsWorkerLoss(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
		var h rpc.Hello
		if dec.Decode(&h) != nil || enc.Encode(rpc.HelloReply{OK: true, Shards: 1}) != nil {
			return
		}
		// Read requests and never answer; the client's timeout tears the
		// connection down, which ends this loop.
		for {
			var req rpc.Request
			if dec.Decode(&req) != nil {
				return
			}
		}
	}()
	f := rpc.NewFleet([]string{l.Addr().String()}, rpc.FleetOptions{OpTimeout: 200 * time.Millisecond})
	defer f.Close()
	start := time.Now()
	_, err = f.Build(core.WorkerSpec{Index: 0, Shards: 1})
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Build took %v against a silent daemon", d)
	}
	var lost interface{ WorkerLost() bool }
	if err == nil || !errors.As(err, &lost) || !lost.WorkerLost() {
		t.Fatalf("Build against a silent daemon returned %v, want worker loss", err)
	}
}

// wholeGraphSpec is a one-shard spec holding every live edge of g.
func wholeGraphSpec(g *graph.Graph, opt core.Options) core.WorkerSpec {
	schema := g.Schema()
	spec := core.WorkerSpec{
		NodeAttrs: schema.Node, EdgeAttrs: schema.Edge,
		NumNodes: g.NumNodes(), Opt: opt.Wire(), ShardMinSupp: 1, Index: 0, Shards: 1,
	}
	for v := 0; v < g.NumNodes(); v++ {
		spec.NodeVals = append(spec.NodeVals, g.NodeValues(v)...)
	}
	for e := 0; e < g.NumEdges(); e++ {
		if !g.EdgeAlive(e) {
			continue
		}
		spec.EdgeSrc = append(spec.EdgeSrc, int32(g.Src(e)))
		spec.EdgeDst = append(spec.EdgeDst, int32(g.Dst(e)))
		spec.EdgeVals = append(spec.EdgeVals, g.EdgeValues(e)...)
	}
	return spec
}

// A counts request naming an attribute or value outside the shard schema
// must come back as an in-band refusal — not a transport failure, not a
// crashed daemon — and the same session must answer the next request.
func TestCountsMalformedRefusedInBand(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- rpc.ServeShards(l, 1, nil) }()
	t.Cleanup(func() { l.Close() })

	g := randomGraph(5, true, false)
	spec := wholeGraphSpec(g, core.Options{MinSupp: 2, MinScore: 0.1, K: 10})
	c, err := rpc.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	slot, err := c.Slot()
	if err != nil {
		t.Fatal(err)
	}
	if err := slot.Build(spec); err != nil {
		t.Fatal(err)
	}
	ok := gr.GR{L: gr.Descriptor{{Attr: 0, Val: 1}}, R: gr.Descriptor{{Attr: 0, Val: 2}}}
	for _, bad := range []gr.GR{
		{L: gr.Descriptor{{Attr: 2, Val: 1}}},  // no third node attribute
		{W: gr.Descriptor{{Attr: 0, Val: 3}}},  // past W's domain
		{R: gr.Descriptor{{Attr: -1, Val: 1}}}, // negative attribute
	} {
		_, err := slot.Counts([]gr.GR{ok, bad})
		if err == nil {
			t.Fatalf("malformed GR %+v accepted", bad)
		}
		var te *rpc.TransportError
		if errors.As(err, &te) {
			t.Fatalf("malformed GR %+v surfaced as a transport failure: %v", bad, err)
		}
	}
	got, err := slot.Counts([]gr.GR{ok})
	if err != nil {
		t.Fatalf("session did not survive the refusals: %v", err)
	}
	local, err := core.NewWorkerState(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Counts([]gr.GR{ok})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Fatalf("remote counts %+v, in-process %+v", got[0], want[0])
	}
	c.Close()

	// The same refusals on the packed form itself: a raw session ships
	// malformed columns no client would build.
	raw := dialRaw(t, l.Addr().String())
	defer raw.conn.Close()
	if rep := raw.call(t, rpc.Request{Op: rpc.OpBuild, Spec: &spec}); rep.Err != "" {
		t.Fatal(rep.Err)
	}
	okQuery := rpc.CountQuery{Lens: []uint8{1, 0, 1}, Attrs: []uint16{0, 0}, Vals: []uint16{1, 2}}
	for _, tc := range []struct {
		name string
		q    rpc.CountQuery
	}{
		{"lengths not whole triples", rpc.CountQuery{Lens: []uint8{1, 0, 1, 1}, Attrs: []uint16{0, 0, 0}, Vals: []uint16{1, 2, 1}}},
		{"lengths overrun the columns", rpc.CountQuery{Lens: []uint8{1, 0, 2}, Attrs: []uint16{0, 0}, Vals: []uint16{1, 2}}},
		{"columns longer than the lengths", rpc.CountQuery{Lens: []uint8{1, 0, 0}, Attrs: []uint16{0, 0}, Vals: []uint16{1, 2}}},
		{"ragged value column", rpc.CountQuery{Lens: []uint8{1, 0, 1}, Attrs: []uint16{0, 0}, Vals: []uint16{1}}},
		{"huge length", rpc.CountQuery{Lens: []uint8{255, 255, 255}, Attrs: []uint16{0}, Vals: []uint16{1}}},
		{"attribute outside the schema", rpc.CountQuery{Lens: []uint8{1, 0, 1}, Attrs: []uint16{7, 0}, Vals: []uint16{1, 2}}},
		{"value outside the domain", rpc.CountQuery{Lens: []uint8{1, 0, 1}, Attrs: []uint16{0, 0}, Vals: []uint16{1, 999}}},
		{"edge value outside the domain", rpc.CountQuery{Lens: []uint8{0, 1, 0}, Attrs: []uint16{0}, Vals: []uint16{3}}},
		{"null value", rpc.CountQuery{Lens: []uint8{1, 0, 1}, Attrs: []uint16{0, 0}, Vals: []uint16{0, 2}}},
		{"unsorted descriptor", rpc.CountQuery{Lens: []uint8{2, 0, 0}, Attrs: []uint16{1, 0}, Vals: []uint16{1, 1}}},
	} {
		if rep := raw.call(t, rpc.Request{Op: rpc.OpCounts, Query: tc.q}); rep.Err == "" {
			t.Errorf("%s: packed query %+v accepted", tc.name, tc.q)
		}
	}
	rep := raw.call(t, rpc.Request{Op: rpc.OpCounts, Query: okQuery})
	if rep.Err != "" {
		t.Fatalf("session did not survive the packed refusals: %s", rep.Err)
	}
	if c := rep.Counts; len(c.LWR) != 1 || int(c.LWR[0]) != want[0].LWR || int(c.LW[0]) != want[0].LW {
		t.Fatalf("packed counts %+v, in-process %+v", c, want[0])
	}
	select {
	case err := <-errCh:
		t.Fatalf("daemon exited: %v", err)
	default:
	}
}

// rawSession is a hand-driven coordinator session: it speaks the protocol
// directly, so a test can send requests no rpc.Client would build.
type rawSession struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// dialRaw opens a session to addr and completes the handshake.
func dialRaw(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	r := &rawSession{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
	if err := r.enc.Encode(rpc.Hello{Magic: rpc.Magic, Version: rpc.Version}); err != nil {
		t.Fatal(err)
	}
	var hr rpc.HelloReply
	if err := r.dec.Decode(&hr); err != nil || !hr.OK {
		t.Fatalf("handshake: %+v, %v", hr, err)
	}
	return r
}

func (r *rawSession) call(t *testing.T, req rpc.Request) rpc.Reply {
	t.Helper()
	if err := r.enc.Encode(req); err != nil {
		t.Fatal(err)
	}
	var rep rpc.Reply
	if err := r.dec.Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCountsReplyMisalignedFailsClosed plays a daemon whose counts replies
// carry columns that do not match the query. The client must return an
// error naming the misalignment, never panic or hand the coordinator short
// counts.
func TestCountsReplyMisalignedFailsClosed(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	bad := []rpc.CountColumns{
		{LWR: []int32{1}, LW: []int32{1, 1}},                         // short LWR
		{LWR: []int32{1, 1}, LW: []int32{1, 1, 1}},                   // long LW
		{LWR: []int32{1, 1}, LW: []int32{1, 1}, Hom: []int32{1}},     // ragged Hom
		{LWR: []int32{1, 1}, LW: []int32{1, 1}, R: []int32{1, 1, 1}}, // long R
		{}, // no columns at all
		{LWR: []int32{1, 1}, LW: []int32{1, 1}, Hom: []int32{0, 0}, R: []int32{}}, // well-formed: must pass
	}
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
		var h rpc.Hello
		if dec.Decode(&h) != nil || enc.Encode(rpc.HelloReply{OK: true, Shards: 1}) != nil {
			return
		}
		for i := 0; ; i++ {
			var req rpc.Request
			if dec.Decode(&req) != nil {
				return
			}
			rep := rpc.Reply{NumEdges: 5}
			if req.Op == rpc.OpCounts {
				rep.Counts = bad[(i-1)%len(bad)]
			}
			if enc.Encode(rep) != nil {
				return
			}
		}
	}()
	c, err := rpc.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	slot, err := c.Slot()
	if err != nil {
		t.Fatal(err)
	}
	if err := slot.Build(core.WorkerSpec{}); err != nil {
		t.Fatal(err)
	}
	q := []gr.GR{{R: gr.Descriptor{{Attr: 0, Val: 1}}}, {L: gr.Descriptor{{Attr: 0, Val: 1}}}}
	for i := range bad[:len(bad)-1] {
		if got, err := slot.Counts(q); err == nil || !strings.Contains(err.Error(), "misaligned") {
			t.Fatalf("reply %d: got %+v, %v; want a misalignment error", i, got, err)
		}
	}
	got, err := slot.Counts(q)
	if err != nil {
		t.Fatalf("well-formed reply refused: %v", err)
	}
	want := metrics.Counts{LWR: 1, LW: 1, E: 5}
	if len(got) != 2 || got[0] != want || got[1] != want {
		t.Fatalf("well-formed reply unpacked to %+v, want two of %+v", got, want)
	}
}
