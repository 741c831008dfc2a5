package rpc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"grminer/internal/core"
)

// FleetOptions tunes how a Fleet dials, places, and replaces workers.
type FleetOptions struct {
	// Standbys are spare daemon addresses never used for initial placement.
	// Rebuild falls through to them when a lost shard's home daemon cannot
	// be redialed (or rejects the handshake, e.g. mid-upgrade version skew).
	Standbys []string
	// DialRetries is how many times a transient dial failure is retried per
	// address before the address is given up on (default 3). Handshake
	// rejections are deployment errors and are never retried.
	DialRetries int
	// DialBackoff is the initial pause before a dial retry; it doubles per
	// attempt, capped at BackoffCap (defaults 100ms and 2s).
	DialBackoff time.Duration
	BackoffCap  time.Duration
	// OpTimeout, when non-zero, bounds every request/reply round trip on
	// every connection the fleet opens. A timed-out call surfaces as worker
	// loss (the torn session's state is unrecoverable), triggering rebuild.
	OpTimeout time.Duration
}

// Fleet places the shards of a deployment across a set of worker daemons,
// multiplexing slots when there are fewer daemons than shards, and rebuilds
// lost shards onto replacement daemons. It implements core.RebuildingBuilder,
// so coordinators constructed from a Fleet survive worker loss: core wraps
// each worker in a replay supervisor that rebuilds the dead shard here —
// from its latest checkpoint blob when one exists, from the WorkerSpec
// otherwise — and replays the coordinator-kept routed-batch log (or just
// its post-checkpoint suffix) into the replacement (DESIGN.md §9).
//
// Placement is deterministic: shard i of an n-daemon fleet lives on
// addrs[i mod n]. Each daemon advertises its slot capacity at handshake;
// a layout that multiplexes more shards onto a daemon than it has slots
// fails construction loudly.
type Fleet struct {
	addrs []string
	opt   FleetOptions

	// done closes when the fleet closes, aborting any backoff sleep a
	// redial loop is parked in.
	done chan struct{}

	mu     sync.Mutex
	conns  map[string]*Client
	dials  map[string]*dialCall
	closed bool
}

// dialCall is one in-flight dial to an address, shared by every concurrent
// acquirer (the daemon accepts one session at a time, so a second parallel
// dial to the same address would sit unanswered in the listen backlog until
// its handshake times out).
type dialCall struct {
	done chan struct{}
	err  error
}

// NewFleet returns a fleet over the given primary daemon addresses.
// Connections are dialed lazily, shared across the slots placed on each
// daemon, and closed when their last slot closes.
func NewFleet(addrs []string, opt FleetOptions) *Fleet {
	if opt.DialRetries <= 0 {
		opt.DialRetries = 3
	}
	if opt.DialBackoff <= 0 {
		opt.DialBackoff = 100 * time.Millisecond
	}
	if opt.BackoffCap <= 0 {
		opt.BackoffCap = 2 * time.Second
	}
	return &Fleet{
		addrs: append([]string(nil), addrs...),
		opt:   opt,
		done:  make(chan struct{}),
		conns: make(map[string]*Client),
		dials: make(map[string]*dialCall),
	}
}

// Build places one shard on its home daemon (addrs[Index mod n]) and ships
// the spec. It implements core.FleetBuilder.
func (f *Fleet) Build(spec core.WorkerSpec) (core.ShardWorker, error) {
	if len(f.addrs) == 0 {
		return nil, errors.New("rpc: fleet has no worker addresses")
	}
	if spec.Index < 0 || spec.Index >= spec.Shards {
		return nil, errors.New("rpc: worker spec index out of range")
	}
	return f.buildOn(f.addrs[spec.Index%len(f.addrs)], spec)
}

// Rebuild builds a replacement worker for a lost shard. Candidates are
// tried in order: the shard's home address first (the daemon may simply
// have been restarted in place), then each standby, then any live daemon
// with a spare slot. The caller (core's replay supervisor) re-seeds and
// replays the routed-batch log into the returned worker; Rebuild itself
// only reconstructs the shard store from the spec.
func (f *Fleet) Rebuild(spec core.WorkerSpec) (core.ShardWorker, error) {
	if len(f.addrs) == 0 {
		return nil, errors.New("rpc: fleet has no worker addresses")
	}
	home := f.addrs[spec.Index%len(f.addrs)]
	var errs []error
	for _, addr := range f.rebuildCandidates(home) {
		w, err := f.buildOn(addr, spec)
		if err == nil {
			return w, nil
		}
		errs = append(errs, err)
	}
	return nil, fmt.Errorf("rpc: no replacement worker for shard %d/%d: %w",
		spec.Index, spec.Shards, errors.Join(errs...))
}

// RebuildRestore builds a replacement worker for a lost shard from a
// checkpoint blob instead of from scratch: the spec and blob ship together
// and the daemon installs the deserialized state into the slot. Candidate
// ordering matches Rebuild. Supervisors that hold a checkpoint replay only
// the post-checkpoint log suffix into the worker returned here.
func (f *Fleet) RebuildRestore(spec core.WorkerSpec, blob []byte) (core.ShardWorker, error) {
	if len(f.addrs) == 0 {
		return nil, errors.New("rpc: fleet has no worker addresses")
	}
	home := f.addrs[spec.Index%len(f.addrs)]
	var errs []error
	for _, addr := range f.rebuildCandidates(home) {
		w, err := f.restoreOn(addr, spec, blob)
		if err == nil {
			return w, nil
		}
		errs = append(errs, err)
	}
	return nil, fmt.Errorf("rpc: no restorable replacement worker for shard %d/%d: %w",
		spec.Index, spec.Shards, errors.Join(errs...))
}

// restoreOn acquires a connection to addr, allocates a slot, and installs
// the checkpointed shard state in it.
func (f *Fleet) restoreOn(addr string, spec core.WorkerSpec, blob []byte) (core.ShardWorker, error) {
	c, err := f.acquire(addr)
	if err != nil {
		return nil, err
	}
	s, err := c.Slot()
	if err != nil {
		return nil, fmt.Errorf("rpc: shard %d/%d: %w", spec.Index, spec.Shards, err)
	}
	if err := s.Restore(spec, blob); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// rebuildCandidates orders the addresses a replacement may come from:
// home, standbys, then live multiplexed peers with spare capacity.
func (f *Fleet) rebuildCandidates(home string) []string {
	cands := make([]string, 0, 1+len(f.opt.Standbys))
	seen := map[string]bool{}
	add := func(addr string) {
		if addr != "" && !seen[addr] {
			seen[addr] = true
			cands = append(cands, addr)
		}
	}
	add(home)
	for _, a := range f.opt.Standbys {
		add(a)
	}
	f.mu.Lock()
	for _, addr := range f.addrs {
		if c := f.conns[addr]; c != nil && c.alive() && c.freeSlots() > 0 {
			add(addr)
		}
	}
	f.mu.Unlock()
	return cands
}

// buildOn acquires a connection to addr, allocates a slot, and builds the
// shard in it.
func (f *Fleet) buildOn(addr string, spec core.WorkerSpec) (core.ShardWorker, error) {
	c, err := f.acquire(addr)
	if err != nil {
		return nil, err
	}
	s, err := c.Slot()
	if err != nil {
		return nil, fmt.Errorf("rpc: shard %d/%d: %w", spec.Index, spec.Shards, err)
	}
	if err := s.Build(spec); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// acquire returns a live cached connection to addr, joins an in-flight dial
// to it, or dials a fresh one itself, retrying transient failures with
// capped exponential backoff. Dials are single-flighted per address:
// concurrent rebuilds of two shards lost with the same daemon share one
// connection attempt instead of racing the daemon's one-session-at-a-time
// accept loop.
func (f *Fleet) acquire(addr string) (*Client, error) {
	f.mu.Lock()
	for {
		if c := f.conns[addr]; c != nil {
			if c.alive() {
				f.mu.Unlock()
				return c, nil
			}
			delete(f.conns, addr)
		}
		call := f.dials[addr]
		if call == nil {
			break
		}
		f.mu.Unlock()
		<-call.done
		if call.err != nil {
			return nil, call.err
		}
		// The winner cached its connection; loop to pick it up (or find it
		// already dead and dial ourselves).
		f.mu.Lock()
	}
	call := &dialCall{done: make(chan struct{})}
	f.dials[addr] = call
	f.mu.Unlock()

	c, err := f.dial(addr)
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.dials, addr)
	if err == nil {
		f.conns[addr] = c
	}
	call.err = err
	close(call.done)
	return c, err
}

// dial performs the retry/backoff loop around Dial. Only transport-class
// failures (*TransportError) are retried; a handshake rejection is a
// deployment error retrying cannot fix. Each pause is jittered — uniform in
// [backoff/2, backoff] — so the redial loops of many shards lost with one
// daemon spread out instead of hammering its restarting listener in
// lockstep, and the sleep aborts immediately when the fleet closes.
func (f *Fleet) dial(addr string) (*Client, error) {
	backoff := f.opt.DialBackoff
	var lastErr error
	for attempt := 0; attempt < f.opt.DialRetries; attempt++ {
		if attempt > 0 {
			pause := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
			t := time.NewTimer(pause)
			select {
			case <-t.C:
			case <-f.done:
				t.Stop()
				return nil, fmt.Errorf("rpc: fleet closed while redialing %s (last error: %w)", addr, lastErr)
			}
			backoff *= 2
			if backoff > f.opt.BackoffCap {
				backoff = f.opt.BackoffCap
			}
		}
		c, err := Dial(addr)
		if err == nil {
			c.CallTimeout = f.opt.OpTimeout
			return c, nil
		}
		lastErr = err
		var te *TransportError
		if !errors.As(err, &te) {
			break
		}
	}
	return nil, lastErr
}

// Close tears down every connection the fleet holds open and aborts any
// redial backoff in flight. Workers built from the fleet become unusable;
// normally coordinators close their workers individually and Close is only
// needed to reclaim stray connections.
func (f *Fleet) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.closed {
		f.closed = true
		close(f.done)
	}
	var first error
	for addr, c := range f.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
		delete(f.conns, addr)
	}
	return first
}
