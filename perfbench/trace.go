package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layers a span is attributed to. Layer names are the repository's module
// names; layerNone marks time the benchmark observes but no module owns
// (the HTTP client and loopback transport around a served request).
const (
	layerCore  = "core"
	layerRPC   = "rpc"
	layerServe = "serve"
	layerNone  = "unaccounted"
)

// reportedLayers lists the layers whose self time the traced run reports.
var reportedLayers = []string{layerCore, layerRPC, layerServe, layerNone}

// span is one timed call across a layer boundary. All spans of one mine or
// batch share Op; Parent is 0 for the operation's root span.
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Operations are traced
// one at a time: op is the id of the traced operation in flight (0 while
// none is, so decorators record nothing), and scope is the span that spans
// opened from inside the program attach to. Only the operation's own
// goroutine moves scope; concurrent leaf spans (one per shard) read it.
//
// A nil *tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	op    atomic.Int64
	scope atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

// beginOp opens the root span of a new traced operation and makes it the
// scope for spans opened inside the program.
func (t *tracer) beginOp(name, layer string) *openSpan {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	t.op.Store(id)
	t.scope.Store(id)
	return &openSpan{t: t, s: span{Op: id, ID: id, Name: name, Layer: layer, Start: t.now()}}
}

// begin opens a span under the current scope of the operation in flight;
// it returns nil (a no-op span) when no traced operation is in flight.
func (t *tracer) begin(name, layer string) *openSpan {
	if t == nil {
		return nil
	}
	op := t.op.Load()
	if op == 0 {
		return nil
	}
	return &openSpan{t: t, s: span{Op: op, ID: t.ids.Add(1), Parent: t.scope.Load(), Name: name, Layer: layer, Start: t.now()}}
}

// enter makes s the scope of spans opened until the returned func runs.
func (s *openSpan) enter() (exit func()) {
	if s == nil {
		return func() {}
	}
	prev := s.t.scope.Swap(s.s.ID)
	return func() { s.t.scope.Store(prev) }
}

// end closes the span and keeps it; ending a root span ends the operation.
func (s *openSpan) end() {
	if s == nil {
		return
	}
	s.s.End = s.t.now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.s)
	s.t.mu.Unlock()
	if s.s.Parent == 0 {
		s.t.op.Store(0)
		s.t.scope.Store(0)
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// byOp groups the recorded spans by operation.
func (t *tracer) byOp() map[int64][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64][]span)
	for _, s := range t.spans {
		out[s.Op] = append(out[s.Op], s)
	}
	return out
}

// write stores every span, one JSON object per line, in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// attribute splits one operation's root interval across layers. The
// interval is cut at every span boundary; each piece goes to the deepest
// spans open over it, in equal shares when several run in parallel (one per
// shard), and to the root's own layer where no child is open. The shares
// therefore sum to the root span's duration: per-layer self time plus the
// unaccounted remainder is the operation's traced time. Shares are in
// nanoseconds.
func attribute(spans []span) (root span, self map[string]float64, err error) {
	depth := map[int64]int{}
	byID := map[int64]span{}
	found := false
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent == 0 {
			if found {
				return root, nil, fmt.Errorf("op %d has two root spans", s.Op)
			}
			root, found = s, true
		}
	}
	if !found {
		return root, nil, fmt.Errorf("op has no root span")
	}
	var depthOf func(s span) int
	depthOf = func(s span) int {
		if d, ok := depth[s.ID]; ok {
			return d
		}
		d := 0
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			d = depthOf(p) + 1
		}
		depth[s.ID] = d
		return d
	}
	cuts := []int64{root.Start, root.End}
	for _, s := range spans {
		for _, c := range []int64{s.Start, s.End} {
			if c > root.Start && c < root.End {
				cuts = append(cuts, c)
			}
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	self = map[string]float64{}
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi == lo {
			continue
		}
		deepest, open := -1, []span(nil)
		for _, s := range spans {
			if s.Start > lo || s.End < hi {
				continue
			}
			switch d := depthOf(s); {
			case d > deepest:
				deepest, open = d, []span{s}
			case d == deepest:
				open = append(open, s)
			}
		}
		share := float64(hi-lo) / float64(len(open))
		for _, s := range open {
			self[s.Layer] += share
		}
	}
	return root, self, nil
}
