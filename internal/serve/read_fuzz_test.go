package serve_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"grminer/internal/serve/apiv1"
)

// fuzzReadBody posts body to path on a fresh server and requires a 200
// whose body decodes into reply, or a 4xx; never a panic or a 5xx. A read
// must leave the engine's epoch and edge count where they were.
func fuzzReadBody(t *testing.T, path, body string, reply any) {
	s, _ := newServer(t)
	before := s.Snapshot()
	w := post(t, s.Handler(), path, body)
	after := s.Snapshot()
	switch {
	case w.Code == http.StatusOK:
		if err := json.Unmarshal(w.Body.Bytes(), reply); err != nil {
			t.Fatalf("200 with an undecodable body %q: %v", w.Body.String(), err)
		}
	case w.Code >= 400 && w.Code < 500:
	default:
		t.Fatalf("status %d for body %q: %s", w.Code, body, w.Body.String())
	}
	if after.Epoch != before.Epoch || after.TotalEdges != before.TotalEdges {
		t.Fatalf("read %q moved the engine: epoch %d -> %d, %d -> %d edges",
			body, before.Epoch, after.Epoch, before.TotalEdges, after.TotalEdges)
	}
}

// FuzzRecommendBody hardens POST /v1/recommend: any body gets 200 or 4xx.
// The checked-in corpus holds node and campaign queries, both and neither
// selector, out-of-range nodes, unparsable RHS descriptors, negative and
// huge top_n, and malformed JSON.
func FuzzRecommendBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body string) {
		fuzzReadBody(t, "/v1/recommend", body, new(apiv1.RecommendResponse))
	})
}

// FuzzPropagateBody hardens POST /v1/propagate: any body gets 200 or 4xx,
// and no body holds the ingest lock past MaxPropagateIter sweeps. The
// checked-in corpus holds the default and rule-derived runs, node filters,
// out-of-range attributes and nodes, a sweep count past the cap with a
// tolerance no sweep can meet, negative counts and tolerances, a diverging
// epsilon, and malformed JSON.
func FuzzPropagateBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body string) {
		fuzzReadBody(t, "/v1/propagate", body, new(apiv1.PropagateResponse))
	})
}
