package rpc_test

import (
	"bytes"
	"encoding/gob"
	"testing"

	"grminer/internal/core"
	"grminer/internal/rpc"
)

// gobBytes encodes v with gob, for seeding the decoder fuzzers with
// well-formed frames.
func gobBytes(t testing.TB, v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeHello hardens the handshake decoder: the first bytes a daemon
// reads come from an untrusted peer (rpc_test proves a garbage handshake
// kills the daemon loudly — this proves it never panics or hangs first).
// Valid frames additionally round-trip.
func FuzzDecodeHello(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
	f.Add(gobBytes(f, rpc.Hello{Magic: rpc.Magic, Version: rpc.Version}))
	f.Add(gobBytes(f, rpc.Hello{Magic: "grminer-shard", Version: 1})) // a v1 peer
	f.Add(gobBytes(f, rpc.Hello{Magic: "something-else", Version: 9000}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var h rpc.Hello
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&h); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(h); err != nil {
			t.Fatalf("re-encode of decoded Hello %+v failed: %v", h, err)
		}
		var h2 rpc.Hello
		if err := gob.NewDecoder(&buf).Decode(&h2); err != nil || h2 != h {
			t.Fatalf("Hello round-trip changed %+v -> %+v (%v)", h, h2, err)
		}
	})
}

// FuzzDecodeWireOptions hardens the options decoder (WireOptions rides
// inside every WorkerSpec a coordinator ships): arbitrary bytes must decode
// or error, never panic, and decoded values must survive the wire → Options
// → wire round trip for every field the resolution keeps.
func FuzzDecodeWireOptions(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x03, 0xff, 0x81, 0x00})
	f.Add(gobBytes(f, core.Options{MinSupp: 50, MinScore: 0.5, K: 20, DynamicFloor: true}.Wire()))
	f.Add(gobBytes(f, core.Options{MinSupp: 1, K: 5, NoGeneralityFilter: true, IncludeTrivial: true, StaticRHSOrder: true}.Wire()))
	f.Add(gobBytes(f, core.Options{MaxL: 3, MaxW: 2, MaxR: 4, ExactGenerality: true}.Wire()))
	f.Fuzz(func(t *testing.T, data []byte) {
		var w core.WireOptions
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
			return
		}
		opt, err := w.Options()
		if err != nil {
			return // unknown metric name: a legitimate decode-time rejection
		}
		w2 := opt.Wire()
		// The metric travels by name; an empty name resolves to the default
		// metric, which re-wires as its canonical name.
		if w.Metric == "" {
			w.Metric = w2.Metric
		}
		if w2 != w {
			t.Fatalf("WireOptions round-trip changed %+v -> %+v", w, w2)
		}
	})
}
