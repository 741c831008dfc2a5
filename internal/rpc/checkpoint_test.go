package rpc_test

import (
	"encoding/gob"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"grminer/internal/core"
	"grminer/internal/graph"
	"grminer/internal/rpc"
)

// TestRemoteCheckpointBoundsReplay is the wire-v4 tentpole gate: a daemon
// multiplexing two of four shards dies AFTER the checkpoint interval has
// elapsed, so the supervisor must restore both dead shards from their
// checkpoint blobs (OpRestore on the standby) and replay only the
// post-checkpoint log suffix — at most interval batches — while every
// maintained top-k stays identical to a fresh single-store mine.
func TestRemoteCheckpointBoundsReplay(t *testing.T) {
	seed := int64(33)
	r := rand.New(rand.NewSource(seed))
	g := randomGraph(seed, true, true)
	victim := startKillable(t, 2)
	survivor := startKillable(t, 2)
	standby := startKillable(t, 2)

	fleet := fastFleet([]string{victim.addr, survivor.addr}, []string{standby.addr})
	defer fleet.Close()
	const interval = 2
	opt := core.Options{MinSupp: 2, MinScore: 0.3, K: 8}
	inc, err := core.NewIncrementalShardedFrom(g, opt,
		core.ShardOptions{Shards: 4, CheckpointInterval: interval}, fleet)
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Close()

	const killAfter = 5 // well past the interval: every shard has checkpointed
	for batch := 0; batch < 8; batch++ {
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
		assertSameResults(t, "checkpoint-failover", res.TopK, ref.TopK)
	}

	var replaced, checkpointed int
	for _, h := range inc.FleetHealth() {
		if !h.Live {
			t.Errorf("shard %d not live after recovery: %+v", h.Shard, h)
		}
		if h.CheckpointEpoch > 0 {
			checkpointed++
		}
		if h.LogSuffixLen >= 2*interval {
			t.Errorf("shard %d log suffix %d was never truncated below 2×interval (%d)",
				h.Shard, h.LogSuffixLen, interval)
		}
		if h.Replacements > 0 {
			replaced++
			if h.Addr != standby.addr {
				t.Errorf("shard %d replaced onto %s, want the standby %s", h.Shard, h.Addr, standby.addr)
			}
			if h.ReplayedBatches > interval*h.Replacements {
				t.Errorf("shard %d replayed %d batches over %d replacements — the checkpoint did not bound replay by the interval (%d)",
					h.Shard, h.ReplayedBatches, h.Replacements, interval)
			}
		}
	}
	if replaced != 2 {
		t.Errorf("%d shards replaced, want the victim's 2", replaced)
	}
	if checkpointed == 0 {
		t.Error("no shard ever checkpointed; the replay bound above is vacuous")
	}
}

// TestHandshakeRejectsV3Peer pins the version bumps themselves: a peer
// speaking wire v3 — the pre-checkpoint protocol — or v4 — whole-GR ingest
// deltas, before handle-addressed replies — must be rejected at handshake
// with both versions named, not served a session that would silently fall
// back to unbounded full replay or fail every ingest reply's decode.
func TestHandshakeRejectsV3Peer(t *testing.T) {
	own := fmt.Sprintf("v%d", rpc.Version)
	for _, peer := range []int{3, 4} {
		addr, errCh := serveOnce(t)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(conn).Encode(rpc.Hello{Magic: rpc.Magic, Version: peer}); err != nil {
			t.Fatal(err)
		}
		var rep rpc.HelloReply
		if err := gob.NewDecoder(conn).Decode(&rep); err != nil {
			t.Fatalf("v%d peer: no handshake reply: %v", peer, err)
		}
		if rep.OK || !strings.Contains(rep.Err, fmt.Sprintf("v%d", peer)) || !strings.Contains(rep.Err, own) {
			t.Fatalf("v%d peer not rejected with both versions named: %+v", peer, rep)
		}
		if err := waitErr(t, errCh); err == nil || !strings.Contains(err.Error(), "mismatch") {
			t.Fatalf("daemon survived a v%d peer: %v", peer, err)
		}
		conn.Close()
	}
}

// TestFleetCloseAbortsDial pins the backoff-abort fix: a redial loop parked
// in its (long) backoff sleep must return the moment the fleet closes, not
// hold Close hostage to the full backoff schedule.
func TestFleetCloseAbortsDial(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // nothing listens here: every dial refuses, a retryable transport error

	fleet := rpc.NewFleet([]string{addr}, rpc.FleetOptions{
		DialRetries: 3,
		DialBackoff: 30 * time.Second,
		BackoffCap:  time.Minute,
	})
	done := make(chan error, 1)
	go func() {
		_, err := fleet.Build(core.WorkerSpec{Shards: 1})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the first attempt fail and the backoff start
	start := time.Now()
	fleet.Close()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "fleet closed") {
			t.Fatalf("aborted dial surfaced the wrong error: %v", err)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("Close took %v to abort a 30s backoff", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not abort the dial backoff")
	}
}
