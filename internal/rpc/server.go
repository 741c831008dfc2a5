package rpc

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"time"

	"grminer/internal/core"
)

// handshakeTimeout bounds how long the server waits for (and spends
// answering) a client's Hello, so a silent or garbage peer cannot wedge the
// accept loop.
const handshakeTimeout = 10 * time.Second

// ServeShards accepts coordinator sessions on l, one at a time, until the
// listener closes. Each session handshakes (advertising capacity worker
// slots), builds up to capacity independent shard workers from the
// coordinator's specs, and serves shard-addressed offer/counts/ingest
// requests until the coordinator disconnects; the next session starts
// fresh with all slots empty.
//
// Closing the listener while a session is in flight drains gracefully: the
// session runs to completion (the accept loop is single-threaded) and
// ServeShards returns nil once the coordinator disconnects — this is how
// shardd implements SIGTERM draining.
//
// A malformed handshake or a version-mismatched peer is a deployment error,
// not a per-request failure: ServeShards replies with the reason (best
// effort), closes the listener, and returns a non-nil error so shardd can
// exit non-zero — the same atomic-rejection stance the -follow stream takes
// on malformed edges. A peer that merely *vanishes* — the connection drops,
// resets, or times out before, during, or after the handshake — is a
// transport event, not a protocol violation: the coordinator may have
// crashed (the exact failure DESIGN.md §9 expects fleets to absorb), and a
// worker daemon that died with it would turn one loss into many. Those
// sessions are logged and the accept loop continues. Post-handshake
// operation errors (including a request addressing a slot beyond capacity)
// are reported to the coordinator in-band and the session continues.
//
// logf, if non-nil, receives one line per session event.
func ServeShards(l net.Listener, capacity int, logf func(format string, args ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if capacity < 1 {
		capacity = 1
	}
	defer l.Close()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("rpc: accept: %w", err)
		}
		if err := serveSession(conn, capacity, logf); err != nil {
			return err
		}
	}
}

// serveSession runs one coordinator session over capacity worker slots. It
// returns a non-nil error only for protocol violations that must terminate
// the daemon.
func serveSession(conn net.Conn, capacity int, logf func(string, ...any)) error {
	defer conn.Close()
	peer := conn.RemoteAddr()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)

	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	var hello Hello
	if err := dec.Decode(&hello); err != nil {
		if connDropped(err) {
			logf("handshake from %v aborted: %v", peer, err)
			return nil
		}
		return fmt.Errorf("rpc: %v: malformed handshake: %w", peer, err)
	}
	if hello.Magic != Magic || hello.Version != Version {
		reason := fmt.Sprintf("protocol mismatch: peer %q v%d, daemon %q v%d",
			hello.Magic, hello.Version, Magic, Version)
		_ = enc.Encode(HelloReply{Err: reason}) // best effort before dying
		return fmt.Errorf("rpc: %v: %s", peer, reason)
	}
	if err := enc.Encode(HelloReply{OK: true, Shards: capacity}); err != nil {
		// The peer dialed and died before reading the reply — a crashed
		// coordinator, not a protocol violation.
		logf("handshake reply to %v failed: %v", peer, err)
		return nil
	}
	conn.SetDeadline(time.Time{})
	logf("session from %v (%d slots)", peer, capacity)

	workers := make([]*core.WorkerState, capacity)
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			if connDropped(err) {
				logf("session from %v ended", peer)
				return nil
			}
			// Mid-session garbage after a valid handshake: the peer spoke
			// our protocol and then broke it — treat like a bad handshake.
			return fmt.Errorf("rpc: %v: malformed request: %w", peer, err)
		}
		if err := enc.Encode(serveRequest(workers, req, logf)); err != nil {
			logf("session from %v: reply failed: %v", peer, err)
			return nil // peer gone mid-reply; not a protocol violation
		}
	}
}

// serveRequest answers one shard-addressed request against a session's
// worker slots, installing the worker a build or restore makes. Every
// failure — a slot beyond capacity, an op before its build, a request the
// worker rejects — is reported in-band in Reply.Err; a session survives
// any request its peer can encode.
func serveRequest(workers []*core.WorkerState, req Request, logf func(string, ...any)) Reply {
	var rep Reply
	if req.Shard < 0 || req.Shard >= len(workers) {
		rep.Err = fmt.Sprintf("shard slot %d out of range (daemon capacity %d)", req.Shard, len(workers))
		return rep
	}
	worker := workers[req.Shard]
	switch req.Op {
	case OpBuild:
		if req.Spec == nil {
			rep.Err = "build request without a worker spec"
			break
		}
		w, err := core.NewWorkerState(*req.Spec)
		if err != nil {
			rep.Err = err.Error()
			break
		}
		workers[req.Shard] = w
		rep.NumEdges = w.NumEdges()
		logf("built shard %d/%d in slot %d: %d edges", req.Spec.Index+1, req.Spec.Shards, req.Shard, rep.NumEdges)
	case OpOffer:
		if worker == nil {
			rep.Err = "offer before build"
			break
		}
		offers, stats, err := worker.Offer(req.Bound)
		if err != nil {
			rep.Err = err.Error()
			break
		}
		rep.Offers, rep.Stats, rep.NumEdges = offers, stats, worker.NumEdges()
	case OpCounts:
		if worker == nil {
			rep.Err = "counts before build"
			break
		}
		counts, err := answerCounts(worker, req.Query)
		if err != nil {
			rep.Err = err.Error()
			break
		}
		rep.Counts, rep.NumEdges = counts, worker.NumEdges()
	case OpIngest:
		if worker == nil {
			rep.Err = "ingest before build"
			break
		}
		ing, err := worker.Ingest(core.Batch{Ins: req.Edges, Del: req.Deletes})
		if err != nil {
			rep.Err = err.Error()
			break
		}
		rep.Ingest, rep.NumEdges = ing, ing.NumEdges
	case OpCheckpoint:
		if worker == nil {
			rep.Err = "checkpoint before build"
			break
		}
		blob, err := worker.Checkpoint()
		if err != nil {
			rep.Err = err.Error()
			break
		}
		rep.Checkpoint, rep.NumEdges = blob, worker.NumEdges()
		logf("checkpointed slot %d: %d bytes", req.Shard, len(blob))
	case OpRestore:
		if req.Spec == nil || req.Checkpoint == nil {
			rep.Err = "restore request without a worker spec and checkpoint blob"
			break
		}
		w, err := core.NewWorkerStateFromCheckpoint(*req.Spec, req.Checkpoint)
		if err != nil {
			rep.Err = err.Error()
			break
		}
		workers[req.Shard] = w
		rep.NumEdges = w.NumEdges()
		logf("restored shard %d/%d into slot %d from a %d-byte checkpoint: %d edges",
			req.Spec.Index+1, req.Spec.Shards, req.Shard, len(req.Checkpoint), rep.NumEdges)
	default:
		rep.Err = fmt.Sprintf("unknown op %q", req.Op)
	}
	return rep
}

// connDropped reports whether err is a connection-level failure — the peer
// closed, vanished, was reset, or timed out — as opposed to a protocol
// violation (decodable garbage, a version mismatch). Dropped connections
// end the session; violations terminate the daemon.
func connDropped(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
