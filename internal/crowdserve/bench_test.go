package crowdserve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"crowdsky/internal/crowd"
)

// BenchmarkJudgment measures one judgment over loopback HTTP, from a
// worker's point of view, in the protocol that SimulateWorkers speaks:
// one answer carries five judgments and leases the next five. It counts
// one op per judgment.
func BenchmarkJudgment(b *testing.B) {
	b.Run("hit5", func(b *testing.B) {
		srv := NewServer()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		ctx := context.Background()
		client := &http.Client{}
		// One single-worker question per judgment, plus a spare HIT
		// so the last answer still finds its jobs.
		qs := make([]QuestionJSON, b.N+crowd.QuestionsPerHIT)
		for i := range qs {
			qs[i] = QuestionJSON{A: i, B: i + 1, Workers: 1}
		}
		postJSON(b, ts.URL+"/api/rounds", map[string]any{"questions": qs}).Body.Close()
		// The worker's first jobs come from a poll; every later one rides
		// on an answer.
		held := fetchWork(ctx, client, ts.URL, "w1")
		judgments := make([]judgmentJSON, 0, crowd.QuestionsPerHIT)
		ok := true
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N && ok; {
			judgments = judgments[:0]
			for _, job := range held[:min(len(held), b.N-i)] {
				judgments = append(judgments, judgmentJSON{AssignmentID: job.AssignmentID, Pref: "first"})
			}
			held, ok = submitAnswers(ctx, client, ts.URL,
				answerRequest{Worker: "w1", Judgments: judgments, Max: crowd.QuestionsPerHIT})
			ok = ok && len(held) > 0
			i += len(judgments)
		}
		if !ok {
			b.Fatal("worker ran out of work or had an answer rejected")
		}
	})
}
