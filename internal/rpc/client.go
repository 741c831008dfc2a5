package rpc

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"grminer/internal/core"
	"grminer/internal/gr"
	"grminer/internal/metrics"
)

// DialTimeout is the default connection + handshake budget per worker; a
// daemon that cannot answer the handshake inside it is reported as an
// error, never waited on.
const DialTimeout = 10 * time.Second

var errClosed = errors.New("connection closed")

// Client is a handshaked connection to one shardd daemon. The daemon
// multiplexes up to Shards() worker slots behind the connection; Slot
// allocates per-slot workers that share (and serialize on) it. Calls are
// serialized per client — the coordinator's concurrency is across daemons,
// matching the documented ShardWorker contract — so the daemon stays a
// single-goroutine loop with no locking.
//
// The connection closes when the last open slot closes. Any transport
// failure poisons the connection for every slot: the daemon discards all
// session state when its connection ends, so no slot of a torn session is
// recoverable (see TransportError).
type Client struct {
	addr string

	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
	// shards is the slot capacity the daemon advertised at handshake; used
	// tracks occupancy and open counts live slots.
	shards int
	used   []bool
	open   int
	// CallTimeout, when non-zero, bounds every request/reply round trip.
	// Zero (the default) leaves mining calls unbounded — offer rounds on
	// large shards legitimately take a while; CI bounds whole jobs instead.
	CallTimeout time.Duration
}

// Dial connects to a shardd daemon and performs the version handshake. A
// mismatched or unresponsive peer yields a descriptive error within
// DialTimeout — the coordinator must never hang on a bad worker. Transient
// I/O failures come back as *TransportError (retry may help); a handshake
// rejection is a deployment error and comes back plain (retry cannot help).
func Dial(addr string) (*Client, error) { return dial(addr, DialTimeout) }

// dial is Dial within timeout.
func dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, &TransportError{Addr: addr, Op: "dial", Err: err}
	}
	conn.SetDeadline(time.Now().Add(timeout))
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	if err := enc.Encode(Hello{Magic: Magic, Version: Version}); err != nil {
		conn.Close()
		return nil, &TransportError{Addr: addr, Op: "handshake send", Err: err}
	}
	var rep HelloReply
	if err := dec.Decode(&rep); err != nil {
		conn.Close()
		return nil, &TransportError{Addr: addr, Op: "handshake",
			Err: fmt.Errorf("%w (is a grminer shardd v%d listening there?)", err, Version)}
	}
	if !rep.OK {
		conn.Close()
		return nil, fmt.Errorf("rpc: worker %s rejected the handshake: %s", addr, rep.Err)
	}
	conn.SetDeadline(time.Time{})
	capacity := rep.Shards
	if capacity < 1 {
		capacity = 1
	}
	return &Client{addr: addr, conn: conn, enc: enc, dec: dec,
		shards: capacity, used: make([]bool, capacity)}, nil
}

// Addr returns the daemon address the client dialed.
func (c *Client) Addr() string { return c.addr }

// Shards returns the slot capacity the daemon advertised at handshake.
func (c *Client) Shards() int { return c.shards }

// Slot allocates the lowest free worker slot on the connection.
func (c *Client) Slot() (*Slot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil, &TransportError{Addr: c.addr, Op: "slot", Err: errClosed}
	}
	for i, inUse := range c.used {
		if !inUse {
			c.used[i] = true
			c.open++
			return &Slot{c: c, shard: i}, nil
		}
	}
	return nil, fmt.Errorf("rpc: worker %s: all %d worker slots in use", c.addr, c.shards)
}

// alive reports whether the connection is still usable.
func (c *Client) alive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn != nil
}

// freeSlots reports how many worker slots are unallocated.
func (c *Client) freeSlots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, inUse := range c.used {
		if !inUse {
			n++
		}
	}
	return n
}

// release frees a slot; the connection closes when the last slot releases
// (the daemon recycles for a new session).
func (c *Client) release(shard int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if shard < 0 || shard >= len(c.used) || !c.used[shard] {
		return nil
	}
	c.used[shard] = false
	c.open--
	if c.open == 0 {
		return c.teardownLocked()
	}
	return nil
}

// Close tears down the connection outright, abandoning any open slots.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.teardownLocked()
}

func (c *Client) teardownLocked() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// call runs one serialized request/reply round trip addressed to a slot.
// Transport failures tear the connection down (for every slot) and come
// back as *TransportError; in-band operation failures (Reply.Err) come back
// as plain errors with the connection intact.
func (c *Client) call(shard int, req Request) (Reply, error) {
	req.Shard = shard
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return Reply{}, &TransportError{Addr: c.addr, Op: req.Op, Err: errClosed}
	}
	if c.CallTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.CallTimeout))
	}
	if err := c.enc.Encode(req); err != nil {
		c.teardownLocked()
		return Reply{}, &TransportError{Addr: c.addr, Op: req.Op, Err: err}
	}
	var rep Reply
	if err := c.dec.Decode(&rep); err != nil {
		c.teardownLocked()
		return Reply{}, &TransportError{Addr: c.addr, Op: req.Op + " reply", Err: err}
	}
	if c.CallTimeout > 0 {
		c.conn.SetDeadline(time.Time{})
	}
	if rep.Err != "" {
		return Reply{}, fmt.Errorf("rpc: worker %s: %s: %s", c.addr, req.Op, rep.Err)
	}
	return rep, nil
}

// Slot is one worker slot of a multiplexed daemon connection. After Build
// it implements core.ShardWorker, so the coordinator drives remote and
// in-process shards through the same interface; it also carries Addr so
// fleet health can name the daemon hosting each shard.
type Slot struct {
	c     *Client
	shard int

	mu       sync.Mutex
	numEdges int
	closed   bool
}

// Addr returns the address of the daemon hosting the slot.
func (s *Slot) Addr() string { return s.c.addr }

// Build ships the worker spec and waits for the shard store to be built.
func (s *Slot) Build(spec core.WorkerSpec) error {
	_, err := s.call(Request{Op: OpBuild, Spec: &spec})
	return err
}

// NumEdges returns the shard's edge count as of the last reply.
func (s *Slot) NumEdges() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.numEdges
}

// Offer runs the worker's round-1 offer mine (see core.ShardWorker).
func (s *Slot) Offer(bound *core.OfferBound) ([]core.ShardCandidate, core.Stats, error) {
	rep, err := s.call(Request{Op: OpOffer, Bound: bound})
	if err != nil {
		return nil, core.Stats{}, err
	}
	return rep.Offers, rep.Stats, nil
}

// Counts answers the batched round-2 exact-count query. The GRs and the
// counts cross the wire as columns (CountQuery, CountColumns); a reply
// whose columns do not match the query is an error.
func (s *Slot) Counts(grs []gr.GR) ([]metrics.Counts, error) {
	q, err := gr.PackColumns(grs)
	if err != nil {
		return nil, fmt.Errorf("rpc: worker %s: counts: %w", s.c.addr, err)
	}
	rep, err := s.call(Request{Op: OpCounts, Query: CountQuery(q)})
	if err != nil {
		return nil, err
	}
	counts, err := rep.Counts.unpack(len(grs), rep.NumEdges)
	if err != nil {
		return nil, fmt.Errorf("rpc: worker %s: counts reply: %w", s.c.addr, err)
	}
	return counts, nil
}

// Ingest applies a routed incremental batch slice (insertions and
// retractions) worker-side.
func (s *Slot) Ingest(batch core.Batch) (core.IngestReply, error) {
	rep, err := s.call(Request{Op: OpIngest, Edges: batch.Ins, Deletes: batch.Del})
	if err != nil {
		return core.IngestReply{}, err
	}
	return rep.Ingest, nil
}

// Checkpoint asks the daemon to serialize the slot's full shard state into
// an opaque versioned blob (see core.Checkpointer). Supervisors retain the
// blob in place of their replay-log prefix.
func (s *Slot) Checkpoint() ([]byte, error) {
	rep, err := s.call(Request{Op: OpCheckpoint})
	if err != nil {
		return nil, err
	}
	return rep.Checkpoint, nil
}

// Restore installs a checkpointed shard state into the slot, replacing any
// worker built there; Fleet.RebuildRestore places replacements with it. The
// spec must describe the same shard the blob was taken from; the daemon
// rejects mismatches in-band.
func (s *Slot) Restore(spec core.WorkerSpec, blob []byte) error {
	_, err := s.call(Request{Op: OpRestore, Spec: &spec, Checkpoint: blob})
	return err
}

// Close releases the slot; the connection closes when its last slot does.
func (s *Slot) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.c.release(s.shard)
}

// call round-trips on the owning connection and mirrors the per-slot edge
// count every reply carries.
func (s *Slot) call(req Request) (Reply, error) {
	rep, err := s.c.call(s.shard, req)
	if err != nil {
		return rep, err
	}
	s.mu.Lock()
	s.numEdges = rep.NumEdges
	s.mu.Unlock()
	return rep, nil
}
