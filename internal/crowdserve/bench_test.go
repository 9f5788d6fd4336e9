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
// protocol (the answer leases the next job), and hit5 the protocol that
// SimulateWorkers speaks (one batched answer carries five judgments and
// leases the next five). Every sub-benchmark counts one op per judgment.
func BenchmarkJudgment(b *testing.B) {
	for _, name := range []string{"fetch+answer", "answer+next", "hit5"} {
		b.Run(name, func(b *testing.B) {
			srv := NewServer()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			ctx := context.Background()
			client := &http.Client{}
			// One single-worker question per judgment, plus a spare HIT
			// so the last chained answer still finds its jobs.
			qs := make([]QuestionJSON, b.N+crowd.QuestionsPerHIT)
			for i := range qs {
				qs[i] = QuestionJSON{A: i, B: i + 1, Workers: 1}
			}
			postJSON(b, ts.URL+"/api/rounds", map[string]any{"questions": qs}).Body.Close()
			var held []workItem
			if name != "fetch+answer" {
				// The worker's first jobs come from a poll; every later
				// one rides on an answer.
				held = fetchWork(ctx, client, ts.URL, "w1")
			}
			judgments := make([]judgmentJSON, 0, crowd.QuestionsPerHIT)
			ok := true
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N && ok; {
				switch name {
				case "fetch+answer":
					var job workItem
					if job, ok = getWork(b, ts.URL, "w1"); ok {
						_, ok = submitAnswers(ctx, client, ts.URL,
							answerRequest{AssignmentID: job.AssignmentID, Worker: "w1", Pref: "first"})
					}
					i++
				case "answer+next":
					held, ok = submitAnswers(ctx, client, ts.URL,
						answerRequest{AssignmentID: held[0].AssignmentID, Worker: "w1", Pref: "first", Next: true})
					ok = ok && len(held) == 1
					i++
				case "hit5":
					judgments = judgments[:0]
					for _, job := range held[:min(len(held), b.N-i)] {
						judgments = append(judgments, judgmentJSON{AssignmentID: job.AssignmentID, Pref: "first"})
					}
					held, ok = submitAnswers(ctx, client, ts.URL,
						answerRequest{Worker: "w1", Judgments: judgments, Max: crowd.QuestionsPerHIT})
					ok = ok && len(held) > 0
					i += len(judgments)
				}
			}
			if !ok {
				b.Fatal("worker ran out of work or had an answer rejected")
			}
		})
	}
}
