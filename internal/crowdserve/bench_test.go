package crowdserve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"crowdsky/internal/crowd"
)

// BenchmarkJudgment measures one judgment over loopback HTTP, from a
// worker's point of view: fetch+answer is the two-exchange protocol
// (GET /api/work, then POST /api/answers), answer+next the one-exchange
// protocol that SimulateWorkers speaks (the answer leases the next job).
func BenchmarkJudgment(b *testing.B) {
	for _, bc := range []struct {
		name string
		next bool
	}{{"fetch+answer", false}, {"answer+next", true}} {
		b.Run(bc.name, func(b *testing.B) {
			srv := NewServer()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			ctx := context.Background()
			client := &http.Client{}
			// One single-worker question per judgment, plus a spare so
			// the last answer+next still finds a job.
			qs := make([]QuestionJSON, b.N+1)
			for i := range qs {
				qs[i] = QuestionJSON{A: i, B: i + 1, Workers: 1}
			}
			postJSON(b, ts.URL+"/api/rounds", map[string]any{"questions": qs}).Body.Close()
			var job workItem
			ok := true
			if bc.next {
				// The worker's first job comes from a poll; every later
				// one rides on an answer.
				job, ok = fetchWork(ctx, client, ts.URL, "w1")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N && ok; i++ {
				if bc.next {
					job, ok, _ = submitAnswer(ctx, client, ts.URL, "w1", job.AssignmentID, crowd.First, true)
					continue
				}
				if job, ok = fetchWork(ctx, client, ts.URL, "w1"); ok {
					_, _, ok = submitAnswer(ctx, client, ts.URL, "w1", job.AssignmentID, crowd.First, false)
				}
			}
			if !ok {
				b.Fatal("worker ran out of work or had an answer rejected")
			}
		})
	}
}
