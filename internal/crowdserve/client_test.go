package crowdserve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"crowdsky/internal/crowd"
	"crowdsky/internal/telemetry"
)

// TestClientCancellationDuringPoll posts a round that no worker will ever
// answer and cancels the context mid-poll: AskCtx must abandon the wait
// promptly (panicking with the context error) instead of sleeping out
// its poll interval, and the retry metric must count the re-polls.
func TestClientCancellationDuringPoll(t *testing.T) {
	_, ts := newTestServer(t)
	c := NewClient(ts.URL)
	c.PollInterval = 20 * time.Millisecond
	reg := telemetry.NewRegistry()
	c.InstrumentMetrics(reg)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(70 * time.Millisecond)
		cancel()
	}()

	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		c.AskCtx(ctx, []crowd.Request{{Q: crowd.Question{A: 0, B: 1}, Workers: 1}})
		done <- nil
	}()

	start := time.Now()
	select {
	case v := <-done:
		if v == nil {
			t.Fatal("AskCtx returned without answers on a cancelled context")
		}
		msg, ok := v.(string)
		if !ok || !strings.Contains(msg, "cancelled") {
			t.Fatalf("panic = %v, want cancellation message", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AskCtx did not notice the cancellation")
	}
	// The cancel fires ~70ms in; a client honouring cancellation returns
	// well before a full extra poll cycle on top of that.
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("cancellation took %v; the poll sleep outlived the context", waited)
	}

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "crowdserve_client_retries_total") {
		t.Errorf("retry metric not registered:\n%s", sb.String())
	}
	exposition := sb.String()
	if strings.Contains(exposition, "crowdserve_client_retries_total 0\n") {
		t.Errorf("no re-polls counted despite several poll cycles:\n%s", exposition)
	}
}

// TestClientRejectsMismatchedAnswers: a done round whose answers do not
// match the questions asked, one for one and in order, fails the round
// with a message naming it. A short reply must not hand the algorithm
// zero-value answers, and a long one must not index past the requests.
func TestClientRejectsMismatchedAnswers(t *testing.T) {
	reqs := []crowd.Request{
		{Q: crowd.Question{A: 0, B: 1}, Workers: 1},
		{Q: crowd.Question{A: 2, B: 3, Attr: 1}, Workers: 1},
	}
	first := AnswerJSON{A: 0, B: 1, Pref: "first"}
	second := AnswerJSON{A: 2, B: 3, Attr: 1, Pref: "second"}
	for _, c := range []struct {
		name    string
		answers []AnswerJSON
		want    string
	}{
		{"short", []AnswerJSON{first}, "1 answers for 2 questions"},
		{"long", []AnswerJSON{first, second, first}, "3 answers for 2 questions"},
		{"reordered", []AnswerJSON{second, first}, "answer 0 is for"},
		{"wrong attribute", []AnswerJSON{first, {A: 2, B: 3, Pref: "second"}}, "answer 1 is for"},
	} {
		t.Run(c.name, func(t *testing.T) {
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.Method == http.MethodPost && r.URL.Path == "/api/rounds":
					w.WriteHeader(http.StatusCreated)
					fmt.Fprint(w, `{"round_id":7}`)
				case r.Method == http.MethodGet && r.URL.Path == "/api/rounds/7":
					if err := json.NewEncoder(w).Encode(map[string]any{"done": true, "answers": c.answers}); err != nil {
						t.Error(err)
					}
				default:
					http.NotFound(w, r)
				}
			}))
			defer stub.Close()
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				NewClient(stub.URL).Ask(reqs)
				return ""
			}()
			if !strings.Contains(msg, "round 7") || !strings.Contains(msg, c.want) {
				t.Errorf("Ask panicked with %q, want a failure of round 7 saying %q", msg, c.want)
			}
		})
	}
}
