package serve_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"grminer/internal/serve/apiv1"
)

// FuzzIngestBody hardens the /v1/ingest decoder and the batch path behind
// it: any body must be answered 2xx or 4xx without a panic. A 4xx must
// leave the epoch and the edge count where they were (a rejected batch
// applies nothing); a 200 must publish exactly the next epoch, with the
// edge count it reports. The checked-in corpus holds valid insert, delete
// and mixed batches, and bodies that are empty, malformed, trailed by
// garbage, carry unknown fields, or name out-of-range nodes, values and
// missing edges.
func FuzzIngestBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body string) {
		s, _ := newServer(t)
		before := s.Snapshot()
		w := post(t, s.Handler(), "/v1/ingest", body)
		after := s.Snapshot()
		switch {
		case w.Code == http.StatusOK:
			var rep apiv1.IngestResponse
			if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
				t.Fatalf("200 with an undecodable body %q: %v", w.Body.String(), err)
			}
			if after.Epoch != before.Epoch+1 || rep.Epoch != after.Epoch || rep.TotalEdges != after.TotalEdges {
				t.Fatalf("accepted batch: epoch %d -> %d (reply %d), reply %d edges, snapshot %d",
					before.Epoch, after.Epoch, rep.Epoch, rep.TotalEdges, after.TotalEdges)
			}
		case w.Code >= 400 && w.Code < 500:
			if after.Epoch != before.Epoch || after.TotalEdges != before.TotalEdges {
				t.Fatalf("refused body (%d %s) moved the engine: epoch %d -> %d, %d -> %d edges",
					w.Code, w.Body.String(), before.Epoch, after.Epoch, before.TotalEdges, after.TotalEdges)
			}
		default:
			t.Fatalf("status %d for body %q: %s", w.Code, body, w.Body.String())
		}
	})
}
