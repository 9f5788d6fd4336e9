package crowdserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"crowdsky/internal/crowd"
)

// Multi-lease contract: a worker exchange carries up to one HIT
// (crowd.QuestionsPerHIT) of leases and judgments, and behaves exactly as
// that many one-lease, one-judgment exchanges would. These tests serve
// requests in process through Server.Handler, without sockets.

// newClockedServer returns a server whose lease clock the test sets.
// Requests are served in process on the test's goroutine, so the clock
// needs no lock.
func newClockedServer() (*Server, *time.Time) {
	clock := time.Unix(1_700_000_000, 0)
	srv := NewServer()
	srv.now = func() time.Time { return clock }
	return srv, &clock
}

// serve sends one request to h in process and returns the recorded
// response; body, when non-nil, is sent as JSON.
func serve(h http.Handler, method, target string, body any) *httptest.ResponseRecorder {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			panic(err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(data)))
	return rec
}

// postRound posts one round of questions in process.
func postRound(t testing.TB, h http.Handler, qs []QuestionJSON) {
	t.Helper()
	if rec := serve(h, http.MethodPost, "/api/rounds", map[string]any{"questions": qs}); rec.Code != http.StatusCreated {
		t.Fatalf("post round: %d %s", rec.Code, rec.Body)
	}
}

// leaseHIT leases up to max assignments through GET /api/work; it returns
// none on a 204.
func leaseHIT(t testing.TB, h http.Handler, worker string, max int) []workItem {
	t.Helper()
	rec := serve(h, http.MethodGet, fmt.Sprintf("/api/work?worker=%s&max=%d", worker, max), nil)
	switch rec.Code {
	case http.StatusNoContent:
		return nil
	case http.StatusOK:
		var batch leaseBatch
		if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
			t.Fatal(err)
		}
		return batch.Leases
	}
	t.Fatalf("GET /api/work max=%d: %d %s", max, rec.Code, rec.Body)
	return nil
}

// answerHIT posts a batched answer and returns the decoded reply.
func answerHIT(t testing.TB, h http.Handler, worker string, judgments []judgmentJSON, max int) answerAck {
	t.Helper()
	rec := serve(h, http.MethodPost, "/api/answers", answerRequest{Worker: worker, Judgments: judgments, Max: max})
	if rec.Code != http.StatusOK {
		t.Fatalf("batched answer: %d %s", rec.Code, rec.Body)
	}
	var ack answerAck
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// judge answers every job "first".
func judge(jobs []workItem) []judgmentJSON {
	out := make([]judgmentJSON, len(jobs))
	for i, j := range jobs {
		out[i] = judgmentJSON{AssignmentID: j.AssignmentID, Pref: "first"}
	}
	return out
}

// hitRounds are two rounds mixing single- and three-worker questions, then
// a round of single-worker questions, so a worker's HITs span several
// exchanges.
var hitRounds = [][]QuestionJSON{
	{{A: 0, B: 1, Workers: 3}, {A: 2, B: 3, Attr: 1, Workers: 1}, {A: 4, B: 5, Workers: 3}},
	{{A: 6, B: 7, Workers: 1}, {A: 0, B: 2, Attr: 1, Workers: 3}},
	{
		{A: 10, B: 11, Workers: 1}, {A: 12, B: 13, Workers: 1}, {A: 14, B: 15, Workers: 1},
		{A: 16, B: 17, Workers: 1}, {A: 18, B: 19, Workers: 1}, {A: 20, B: 21, Workers: 1},
	},
}

// TestMultiLeaseMatchesSingleLeases: two workers taking turns receive the
// same assignments in the same order whether each HIT is leased with one
// max=5 request (GET /api/work, then five-judgment answers) or with five
// max=1 GET /api/work requests after one-judgment answers.
func TestMultiLeaseMatchesSingleLeases(t *testing.T) {
	type lease struct {
		worker string
		job    workItem
	}
	run := func(multi bool) []lease {
		h := NewServer().Handler()
		for _, qs := range hitRounds {
			postRound(t, h, qs)
		}
		workers := []string{"w1", "w2"}
		held := map[string][]workItem{}
		var got []lease
		take := func(w string, jobs []workItem) {
			held[w] = jobs
			for _, j := range jobs {
				got = append(got, lease{w, j})
			}
		}
		singles := func(w string) []workItem {
			var jobs []workItem
			for len(jobs) < crowd.QuestionsPerHIT {
				job := leaseHIT(t, h, w, 1)
				if len(job) == 0 {
					break
				}
				jobs = append(jobs, job...)
			}
			return jobs
		}
		for _, w := range workers {
			if multi {
				take(w, leaseHIT(t, h, w, crowd.QuestionsPerHIT))
			} else {
				take(w, singles(w))
			}
		}
		for busy := true; busy; {
			busy = false
			for _, w := range workers {
				jobs := held[w]
				if len(jobs) == 0 {
					continue
				}
				busy = true
				if multi {
					ack := answerHIT(t, h, w, judge(jobs), crowd.QuestionsPerHIT)
					if !slices.Equal(ack.Accepted, []bool{true, true, true, true, true}[:len(jobs)]) {
						t.Fatalf("%s: accepted %v", w, ack.Accepted)
					}
					take(w, ack.Leases)
					continue
				}
				for _, j := range jobs {
					if ack := answerHIT(t, h, w, judge([]workItem{j}), 0); !ack.Accepted[0] || len(ack.Leases) != 0 {
						t.Fatalf("%s: one-judgment answer: %+v", w, ack)
					}
				}
				take(w, singles(w))
			}
		}
		return got
	}
	singly, batched := run(false), run(true)
	// Seventeen slots, less the third slot of each three-worker question,
	// which neither worker may take.
	if len(singly) != 14 {
		t.Fatalf("max=1 leases granted %d assignments, want 14: %v", len(singly), singly)
	}
	if !slices.Equal(singly, batched) {
		t.Errorf("max=5 leases differ from five max=1 leases:\n got %v\nwant %v", batched, singly)
	}
}

// TestMultiLeaseSkipsVotedQuestion: on three-worker questions, one
// multi-lease never holds two slots of one question, and a later one
// never hands a worker a question it already voted on.
func TestMultiLeaseSkipsVotedQuestion(t *testing.T) {
	h := NewServer().Handler()
	postRound(t, h, []QuestionJSON{
		{A: 0, B: 1, Workers: 3}, {A: 2, B: 3, Workers: 3}, {A: 4, B: 5, Workers: 3},
	})
	for _, w := range []string{"w1", "w2", "w3"} {
		seen := map[[2]int]bool{}
		for jobs := leaseHIT(t, h, w, crowd.QuestionsPerHIT); len(jobs) > 0; {
			for _, j := range jobs {
				q := [2]int{j.A, j.B}
				if seen[q] {
					t.Fatalf("%s leased a second slot of question %v", w, q)
				}
				seen[q] = true
			}
			jobs = answerHIT(t, h, w, judge(jobs), crowd.QuestionsPerHIT).Leases
		}
		if len(seen) != 3 {
			t.Errorf("%s answered %d questions, want 3", w, len(seen))
		}
	}
	if jobs := leaseHIT(t, h, "w4", crowd.QuestionsPerHIT); len(jobs) != 0 {
		t.Errorf("work left after three workers answered every slot: %v", jobs)
	}
}

// TestBatchFlagsOnlyBadJudgments: in a batch with one foreign, expired,
// already-answered or repeated judgment, the others are recorded and only
// that one is flagged.
func TestBatchFlagsOnlyBadJudgments(t *testing.T) {
	qs := make([]QuestionJSON, 8)
	for i := range qs {
		qs[i] = QuestionJSON{A: 2 * i, B: 2*i + 1, Workers: 1}
	}
	for _, c := range []struct {
		name string
		// bad returns the bad judgment, given the server and w1's HIT.
		bad func(t *testing.T, h http.Handler, clock *time.Time, hit []workItem) judgmentJSON
	}{
		{"foreign", func(t *testing.T, h http.Handler, _ *time.Time, _ []workItem) judgmentJSON {
			return judge(leaseHIT(t, h, "w2", 1))[0]
		}},
		{"expired", func(t *testing.T, h http.Handler, clock *time.Time, hit []workItem) judgmentJSON {
			// w1 leased hit[0] first; it lapses while the rest still run,
			// and w2's poll reaps it.
			*clock = clock.Add(DefaultLease / 2)
			leaseHIT(t, h, "w2", 1)
			return judge(hit[:1])[0]
		}},
		{"already answered", func(t *testing.T, h http.Handler, _ *time.Time, hit []workItem) judgmentJSON {
			if ack := answerHIT(t, h, "w1", judge(hit[:1]), 0); !ack.Accepted[0] {
				t.Fatal("first answer rejected")
			}
			return judge(hit[:1])[0]
		}},
		{"repeated in the batch", func(t *testing.T, _ http.Handler, _ *time.Time, hit []workItem) judgmentJSON {
			return judge(hit[1:2])[0]
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, clock := newClockedServer()
			h := srv.Handler()
			postRound(t, h, qs)
			hit := leaseHIT(t, h, "w1", 1)
			*clock = clock.Add(DefaultLease * 3 / 4)
			hit = append(hit, leaseHIT(t, h, "w1", 3)...)
			bad := c.bad(t, h, clock, hit)
			before := serverStatsIn(t, h).Judgments
			batch := append(judge(hit[1:]), bad)
			ack := answerHIT(t, h, "w1", batch, 0)
			if want := []bool{true, true, true, false}; !slices.Equal(ack.Accepted, want) {
				t.Errorf("accepted = %v, want %v", ack.Accepted, want)
			}
			if got := serverStatsIn(t, h).Judgments; got != before+3 {
				t.Errorf("judgments %d → %d, want three recorded", before, got)
			}
		})
	}
}

// serverStatsIn reads GET /api/stats in process.
func serverStatsIn(t testing.TB, h http.Handler) statsResp {
	t.Helper()
	var st statsResp
	if err := json.Unmarshal(serve(h, http.MethodGet, "/api/stats", nil).Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestHITLimitsRejected: max outside 1–5, more than five judgments, an
// empty batch, a bad preference or worker id, and any body besides
// {worker, judgments, max} (the retired single-judgment and "next" forms
// included) each get a 400 and leave the queue, the leases and the
// judgment count as they were.
func TestHITLimitsRejected(t *testing.T) {
	srv := NewServer()
	h := srv.Handler()
	postRound(t, h, hitRounds[2])
	hit := leaseHIT(t, h, "w1", 2)
	wantQueue, wantLeased := queueState(srv)
	six := judge(append(slices.Clone(hit), hit[0], hit[1], hit[0], hit[1]))
	id := hit[0].AssignmentID
	for _, c := range []struct {
		name   string
		method string
		target string
		body   any
	}{
		{"max=0", http.MethodGet, "/api/work?worker=w2&max=0", nil},
		{"max=6", http.MethodGet, "/api/work?worker=w2&max=6", nil},
		{"max=-1", http.MethodGet, "/api/work?worker=w2&max=-1", nil},
		{"max empty", http.MethodGet, "/api/work?worker=w2&max=", nil},
		{"max not a number", http.MethodGet, "/api/work?worker=w2&max=five", nil},
		{"six judgments", http.MethodPost, "/api/answers", answerRequest{Worker: "w1", Judgments: six, Max: 5}},
		{"no judgments", http.MethodPost, "/api/answers", map[string]any{"worker": "w1", "judgments": []judgmentJSON{}, "max": 5}},
		{"batch max=6", http.MethodPost, "/api/answers", answerRequest{Worker: "w1", Judgments: judge(hit), Max: 6}},
		{"batch max=-1", http.MethodPost, "/api/answers", answerRequest{Worker: "w1", Judgments: judge(hit), Max: -1}},
		{"bad preference in a batch", http.MethodPost, "/api/answers", answerRequest{Worker: "w1", Judgments: []judgmentJSON{{id, "first"}, {hit[1].AssignmentID, "maybe"}}}},
		{"bad worker id", http.MethodPost, "/api/answers", answerRequest{Worker: "w 1", Judgments: judge(hit), Max: 5}},
		{"single body", http.MethodPost, "/api/answers", map[string]any{"assignment_id": id, "worker": "w1", "pref": "first"}},
		{"next body", http.MethodPost, "/api/answers", map[string]any{"assignment_id": id, "worker": "w1", "pref": "first", "next": true}},
		{"single body with max", http.MethodPost, "/api/answers", map[string]any{"assignment_id": id, "worker": "w1", "pref": "first", "max": 5}},
		{"batch beside a single judgment", http.MethodPost, "/api/answers", map[string]any{"assignment_id": id, "worker": "w1", "pref": "first", "judgments": judge(hit[1:])}},
		{"batch with next", http.MethodPost, "/api/answers", map[string]any{"worker": "w1", "judgments": judge(hit), "next": true}},
	} {
		if rec := serve(h, c.method, c.target, c.body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, rec.Code)
		}
		if q, l := queueState(srv); !slices.Equal(q, wantQueue) || l != wantLeased {
			t.Errorf("%s: queue %v with %d leases, want %v with %d", c.name, q, l, wantQueue, wantLeased)
		}
		if st := serverStatsIn(t, h); st.Judgments != 0 {
			t.Errorf("%s: recorded %d judgments", c.name, st.Judgments)
		}
	}
}

// TestLostMultiLeaseReplyRequeues: when the reply to a batched answer is
// lost, its judgments still count once, and every lease it carried
// lapses back into the queue for another worker, in order.
func TestLostMultiLeaseReplyRequeues(t *testing.T) {
	srv, clock := newClockedServer()
	h := srv.Handler()
	postRound(t, h, hitRounds[2])
	hit := leaseHIT(t, h, "w1", 3)
	// Pretend this reply never arrives: the worker does not learn the
	// leases it carries and resubmits its judgments.
	ack := answerHIT(t, h, "w1", judge(hit), crowd.QuestionsPerHIT)
	stranded := ack.Leases
	if len(stranded) != 3 {
		t.Fatalf("batched answer leased %d assignments, want the 3 left", len(stranded))
	}
	if again := answerHIT(t, h, "w1", judge(hit), crowd.QuestionsPerHIT); !slices.Equal(again.Accepted, []bool{false, false, false}) || len(again.Leases) != 0 {
		t.Errorf("resubmitted batch: accepted %v with leases %v, want all rejected and none", again.Accepted, again.Leases)
	}
	*clock = clock.Add(DefaultLease + time.Second)
	if got := leaseHIT(t, h, "w2", crowd.QuestionsPerHIT); !slices.Equal(got, stranded) {
		t.Errorf("stranded leases not requeued: got %v, want %v", got, stranded)
	}
	if st := serverStatsIn(t, h); st.Judgments != 3 {
		t.Errorf("judgments = %d, want 3", st.Judgments)
	}
}

// TestLapsedLeasesRequeueInIDOrder: eight leases that lapse together go
// back in line in ascending assignment-id order, whatever order the
// leased-set map yields them in, so identical state hands out work
// identically. Each trial is a fresh server, so a map order that happens
// to be sorted cannot pass every trial.
func TestLapsedLeasesRequeueInIDOrder(t *testing.T) {
	var qs []QuestionJSON
	for i := 0; i < 8; i++ {
		qs = append(qs, QuestionJSON{A: 2 * i, B: 2*i + 1, Workers: 1})
	}
	for trial := 0; trial < 5; trial++ {
		srv, clock := newClockedServer()
		h := srv.Handler()
		postRound(t, h, qs)
		var want []int64
		for _, hit := range [][]workItem{leaseHIT(t, h, "w1", 5), leaseHIT(t, h, "w1", 3)} {
			for _, job := range hit {
				want = append(want, job.AssignmentID)
			}
		}
		if len(want) != len(qs) {
			t.Fatalf("leased %d assignments, want %d", len(want), len(qs))
		}
		slices.Sort(want)
		*clock = clock.Add(DefaultLease + time.Second)
		var got []int64
		for _, hit := range [][]workItem{leaseHIT(t, h, "w2", 5), leaseHIT(t, h, "w2", 5)} {
			for _, job := range hit {
				got = append(got, job.AssignmentID)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: lapsed leases re-leased as %v, want ascending %v", trial, got, want)
		}
	}
}

// FuzzWorkerProtocol drives the worker side of the marketplace in process
// with one to three workers: random sequences of leases (max absent, 1–5
// or out of range), answers of one to six judgments (repeats, foreign ids
// and lapsed leases included), round posts and clock jumps past the
// lease. Whatever the sequence, no request gets a 5xx, no assignment
// counts twice, no round's remaining goes negative, and no worker holds or
// votes on two slots of one question.
func FuzzWorkerProtocol(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 1, 5, 0, 3, 3, 0, 0, 0, 5, 1, 1, 1, 3, 2, 3, 1, 0, 5})
	f.Add([]byte{2, 3, 2, 1, 1, 5, 1, 1, 5, 0, 4, 1, 0, 3, 4, 1, 1, 2, 0, 3, 2, 2, 5, 2, 3, 4, 0, 1, 1, 5})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 400)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		srv, clock := newClockedServer()
		h := srv.Handler()
		workers := 1 + next()%3
		var (
			leasedIDs []int64                    // every assignment id ever leased
			held      = make([][]int64, workers) // ids leased per worker, lapsed or not
			question  = map[int64][3]int{}       // assignment id → (a, b, attr)
			counted   = map[int64]bool{}         // assignments with an accepted judgment
			voted     = map[string]bool{}        // "worker a b attr" of every accepted vote
			pairs     int
		)
		postQuestions := func() {
			qs := make([]QuestionJSON, 1+next()%4)
			for i := range qs {
				qs[i] = QuestionJSON{A: 2 * pairs, B: 2*pairs + 1, Attr: pairs % 2, Workers: 1 + 2*(next()%2)}
				pairs++
			}
			postRound(t, h, qs)
		}
		voteKey := func(worker string, id int64) string {
			q, ok := question[id]
			if !ok {
				t.Fatalf("%s's judgment on assignment %d accepted, which was never leased", worker, id)
			}
			return fmt.Sprint(worker, q)
		}
		leased := func(w int, worker string, jobs []workItem) {
			for _, j := range jobs {
				question[j.AssignmentID] = [3]int{j.A, j.B, j.Attr}
				if voted[voteKey(worker, j.AssignmentID)] {
					t.Fatalf("%s leased assignment %d of a question it voted on", worker, j.AssignmentID)
				}
				held[w] = append(held[w], j.AssignmentID)
				leasedIDs = append(leasedIDs, j.AssignmentID)
			}
		}
		accepted := func(worker string, id int64) {
			if counted[id] {
				t.Fatalf("assignment %d counted twice", id)
			}
			counted[id] = true
			if k := voteKey(worker, id); voted[k] {
				t.Fatalf("%s voted twice on one question", worker)
			} else {
				voted[k] = true
			}
		}
		// pick chooses an assignment id for worker w to answer: mostly one
		// of its latest HIT's worth of leases, else another worker's, any
		// leased id, or an arbitrary one.
		pick := func(w int) int64 {
			var pool []int64
			switch r := next() % 8; {
			case r < 5:
				pool = held[w][max(0, len(held[w])-crowd.QuestionsPerHIT):]
			case r == 5:
				pool = held[(w+1)%workers]
			case r == 6:
				pool = leasedIDs
			}
			if len(pool) == 0 {
				return int64(next())
			}
			return pool[next()%len(pool)]
		}
		prefs := []string{"first", "second", "equal"}
		postQuestions()
		for ops := 0; len(data) > 0 && ops < 200; ops++ {
			w := next() % workers
			worker := fmt.Sprintf("w%d", w)
			var rec *httptest.ResponseRecorder
			switch next() % 5 {
			case 0:
				postQuestions()
			case 1:
				// max absent (one lease), 1–5, or out of range.
				target, limit := "/api/work?worker="+worker, 1
				if k := next() % 8; k > 0 {
					limit = k % 7
					target += fmt.Sprintf("&max=%d", limit)
				}
				rec = serve(h, http.MethodGet, target, nil)
				if rec.Code == http.StatusOK {
					var batch leaseBatch
					if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
						t.Fatal(err)
					}
					if len(batch.Leases) > limit {
						t.Fatalf("%s leased %d", target, len(batch.Leases))
					}
					leased(w, worker, batch.Leases)
				}
			case 2:
				judgments := make([]judgmentJSON, 1+next()%6)
				for i := range judgments {
					judgments[i] = judgmentJSON{AssignmentID: pick(w), Pref: prefs[next()%3]}
				}
				limit := next() % 7
				rec = serve(h, http.MethodPost, "/api/answers", answerRequest{Worker: worker, Judgments: judgments, Max: limit})
				if rec.Code == http.StatusOK {
					var ack answerAck
					if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
						t.Fatal(err)
					}
					if len(ack.Accepted) != len(judgments) || len(ack.Leases) > limit {
						t.Fatalf("batch of %d with max %d: reply %+v", len(judgments), limit, ack)
					}
					for i, ok := range ack.Accepted {
						if ok {
							accepted(worker, judgments[i].AssignmentID)
						}
					}
					leased(w, worker, ack.Leases)
				}
			case 3:
				if next()%2 == 0 {
					*clock = clock.Add(DefaultLease + time.Second)
				} else {
					*clock = clock.Add(time.Second)
				}
			case 4:
				rec = serve(h, http.MethodGet, "/api/stats", nil)
			}
			if rec != nil && rec.Code >= 500 {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			checkMarketplace(t, srv, len(counted))
		}
	})
}

// checkMarketplace asserts the server's own books: judgments match the
// accepted count, no round's remaining is negative or out of step with
// its votes, and no worker holds two slots of one question or a slot of
// one it voted on.
func checkMarketplace(t *testing.T, srv *Server, accepted int) {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.judgments != accepted {
		t.Fatalf("server counted %d judgments, replies accepted %d", srv.judgments, accepted)
	}
	for id, rd := range srv.rounds {
		open := 0
		for q := range rd.questions {
			if len(rd.votes[q]) > rd.needed[q] || len(rd.voters[q]) != len(rd.votes[q]) {
				t.Fatalf("round %d question %d: %d votes from %d voters, %d needed",
					id, q, len(rd.votes[q]), len(rd.voters[q]), rd.needed[q])
			}
			open += rd.needed[q] - len(rd.votes[q])
		}
		if rd.remaining < 0 || rd.remaining != open {
			t.Fatalf("round %d: remaining %d, want %d", id, rd.remaining, open)
		}
	}
	holds := map[string]bool{}
	for _, a := range srv.leased {
		if a.done {
			continue
		}
		key := fmt.Sprint(a.leasedTo, a.roundID, a.qIndex)
		if holds[key] {
			t.Fatalf("%s holds two slots of round %d question %d", a.leasedTo, a.roundID, a.qIndex)
		}
		holds[key] = true
		if srv.rounds[a.roundID].voters[a.qIndex][a.leasedTo] {
			t.Fatalf("%s holds a slot of round %d question %d, which it voted on", a.leasedTo, a.roundID, a.qIndex)
		}
	}
}
