package crowdserve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSnapshotRestoreMidRound: judgments collected before a restart
// survive it; the open slots are re-served and the round completes with
// the pre-restart votes counted.
func TestSnapshotRestoreMidRound(t *testing.T) {
	srv, ts := newTestServer(t)

	resp := postJSON(t, ts.URL+"/api/rounds", map[string]any{
		"questions": []QuestionJSON{{A: 0, B: 1, Attr: 0, Workers: 3}},
	})
	resp.Body.Close()

	// Two of three judgments land before the "crash".
	for _, worker := range []string{"w1", "w2"} {
		job, _ := getWork(t, ts.URL, worker)
		answerOne(t, ts.URL, worker, job.AssignmentID, "first")
	}
	// A third worker holds a lease at crash time; the lease must not
	// survive.
	leased, _ := getWork(t, ts.URL, "w3")

	var snap bytes.Buffer
	if err := srv.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh server restored from the snapshot.
	srv2 := NewServer()
	if err := srv2.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	// The leased slot is open again; w3's stale lease is void.
	if answerOne(t, ts2.URL, "w3", leased.AssignmentID, "second") {
		t.Errorf("stale lease accepted after restore")
	}

	job, ok := getWork(t, ts2.URL, "w4")
	if !ok {
		t.Fatal("restored server has no open work")
	}
	if !answerOne(t, ts2.URL, "w4", job.AssignmentID, "first") {
		t.Fatal("answer after restore rejected")
	}

	// The round is complete with the two pre-crash votes plus one new one.
	r, err := http.Get(ts2.URL + "/api/rounds/1")
	if err != nil {
		t.Fatal(err)
	}
	final := decode[struct {
		Done    bool         `json:"done"`
		Answers []AnswerJSON `json:"answers"`
	}](t, r)
	if !final.Done || len(final.Answers) != 1 || final.Answers[0].Pref != "first" {
		t.Errorf("restored round outcome wrong: %+v", final)
	}
}

// TestSnapshotDoubleVotePreventionSurvives: a worker who answered before
// the restart cannot grab another slot of the same question after it.
func TestSnapshotDoubleVotePreventionSurvives(t *testing.T) {
	srv, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/api/rounds", map[string]any{
		"questions": []QuestionJSON{{A: 0, B: 1, Attr: 0, Workers: 3}},
	})
	resp.Body.Close()
	job, _ := getWork(t, ts.URL, "w1")
	answerOne(t, ts.URL, "w1", job.AssignmentID, "first")

	var snap bytes.Buffer
	if err := srv.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer()
	if err := srv2.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	if _, ok := getWork(t, ts2.URL, "w1"); ok {
		t.Errorf("w1 offered a second slot of an answered question after restore")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")

	srv := NewServer()
	// Missing file is a fresh start.
	if err := srv.LoadFile(path); err != nil {
		t.Fatalf("missing snapshot errored: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/api/rounds", map[string]any{
		"questions": []QuestionJSON{{A: 3, B: 4, Attr: 1, Workers: 1}},
	})
	resp.Body.Close()
	if err := srv.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	srv2 := NewServer()
	if err := srv2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	job, ok := getWork(t, ts2.URL, "w")
	if !ok {
		t.Fatal("restored queue empty")
	}
	if job.A != 3 || job.B != 4 || job.Attr != 1 {
		t.Errorf("restored question wrong: %+v", job)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	srv := NewServer()
	if err := srv.Restore(strings.NewReader("not json")); err == nil {
		t.Errorf("garbage snapshot accepted")
	}
	if err := srv.Restore(strings.NewReader(`{"open":[{"id":1,"round_id":9,"q_index":0}]}`)); err == nil {
		t.Errorf("dangling assignment accepted")
	}
	if err := srv.Restore(strings.NewReader(
		`{"rounds":[{"id":1,"questions":[{"a":0,"b":1}],"votes":[["maybe"]],"voters":[{}],"needed":[1],"remaining":0}]}`)); err == nil {
		t.Errorf("unknown preference accepted")
	}
	// Per-question arrays shorter than the questions: the first open
	// assignment's double-vote check would index past the end.
	for _, round := range []string{
		`{"id":1,"questions":[{"a":0,"b":1}],"votes":[[]],"voters":[],"needed":[1],"remaining":1}`,
		`{"id":1,"questions":[{"a":0,"b":1}],"votes":[],"voters":[{}],"needed":[1],"remaining":1}`,
		`{"id":1,"questions":[{"a":0,"b":1}],"votes":[[]],"voters":[{}],"needed":[],"remaining":1}`,
	} {
		snap := `{"rounds":[` + round + `],"open":[{"id":1,"round_id":1,"q_index":0}]}`
		if err := srv.Restore(strings.NewReader(snap)); err == nil {
			t.Errorf("short per-question array accepted: %s", round)
		}
	}
	// A worker count outside 1..MaxWorkersPerQuestion: the vote capacity
	// reserved for it would be empty, or too large to allocate.
	for _, needed := range []string{"0", "4611686018427387904"} {
		snap := `{"rounds":[{"id":1,"questions":[{"a":0,"b":1}],"votes":[[]],"voters":[{}],"needed":[` + needed + `],"remaining":0}]}`
		if err := srv.Restore(strings.NewReader(snap)); err == nil {
			t.Errorf("needed %s accepted", needed)
		}
	}
	// More votes or open slots than the question has workers: the vote
	// append would outgrow the capacity reserved for it.
	for _, snap := range []string{
		`{"rounds":[{"id":1,"questions":[{"a":0,"b":1,"workers":1}],"votes":[["first","first"]],"voters":[{"w1":true,"w2":true}],"needed":[1],"remaining":0}]}`,
		`{"rounds":[{"id":1,"questions":[{"a":0,"b":1,"workers":1}],"votes":[["first"]],"voters":[{"w1":true}],"needed":[1],"remaining":0}],` +
			`"open":[{"id":2,"round_id":1,"q_index":0}]}`,
	} {
		if err := srv.Restore(strings.NewReader(snap)); err == nil {
			t.Errorf("over-full question accepted: %s", snap)
		}
	}
	// Too few open slots, a remaining count that disagrees with the open
	// slots, a repeated id, or a replay key for a missing round: the
	// round would never complete, one slot or round would shadow another,
	// or a retried post would get back a round that does not exist.
	for _, snap := range []string{
		`{"rounds":[{"id":1,"questions":[{"a":0,"b":1,"workers":2}],"votes":[[]],"voters":[{}],"needed":[2],"remaining":2}],` +
			`"open":[{"id":1,"round_id":1,"q_index":0}]}`,
		`{"rounds":[{"id":1,"questions":[{"a":0,"b":1,"workers":2}],"votes":[[]],"voters":[{}],"needed":[2],"remaining":1}],` +
			`"open":[{"id":1,"round_id":1,"q_index":0},{"id":2,"round_id":1,"q_index":0}]}`,
		`{"rounds":[{"id":1,"questions":[{"a":0,"b":1,"workers":2}],"votes":[[]],"voters":[{}],"needed":[2],"remaining":2}],` +
			`"open":[{"id":1,"round_id":1,"q_index":0},{"id":1,"round_id":1,"q_index":0}]}`,
		`{"rounds":[{"id":1,"questions":[{"a":0,"b":1,"workers":1}],"votes":[["first"]],"voters":[{"w1":true}],"needed":[1],"remaining":0},` +
			`{"id":1,"questions":[{"a":2,"b":3,"workers":1}],"votes":[[]],"voters":[{}],"needed":[1],"remaining":1}],` +
			`"open":[{"id":2,"round_id":1,"q_index":0}]}`,
		`{"idempotency":{"k-1":7},"rounds":[]}`,
	} {
		if err := srv.Restore(strings.NewReader(snap)); err == nil {
			t.Errorf("unfinishable or ambiguous snapshot accepted: %s", snap)
		}
	}
	// Rejected snapshots leave the server as it was.
	if q, l := queueState(srv); len(q) != 0 || l != 0 {
		t.Errorf("rejected snapshots left work behind: queue %v, %d leases", q, l)
	}
	// A restored question has room for all of its votes, as a freshly
	// posted one does, so recording a judgment after a restart never
	// grows the vote slice.
	if err := srv.Restore(strings.NewReader(
		`{"rounds":[{"id":1,"questions":[{"a":0,"b":1,"workers":3}],"votes":[["first"]],"voters":[{"w1":true}],"needed":[3],"remaining":2}],` +
			`"open":[{"id":2,"round_id":1,"q_index":0},{"id":3,"round_id":1,"q_index":0}]}`)); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if votes := srv.rounds[1].votes[0]; len(votes) != 1 || cap(votes) != 3 {
		t.Errorf("restored votes len %d cap %d, want 1 and 3", len(votes), cap(votes))
	}
}

// TestRoundAfterRestoreKeepsRestored: a snapshot whose counters lag its
// rounds and assignments (next ids 0) must not let a new round or slot
// reuse a restored id. The restored round keeps its paid vote, and both
// rounds complete with their own questions.
func TestRoundAfterRestoreKeepsRestored(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Restore(strings.NewReader(
		`{"next_round_id":0,"next_assign":0,"rounds":[{"id":1,"questions":[{"a":0,"b":1,"workers":2}],` +
			`"votes":[["first"]],"voters":[{"w1":true}],"needed":[2],"remaining":1}],` +
			`"open":[{"id":1,"round_id":1,"q_index":0}]}`)); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/api/rounds", map[string]any{
		"questions": []QuestionJSON{{A: 5, B: 6, Workers: 1}},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post round: %s", resp.Status)
	}
	if id := decode[map[string]int64](t, resp)["round_id"]; id != 2 {
		t.Fatalf("new round got id %d, want 2 (restored round 1 replaced)", id)
	}
	r, err := http.Get(ts.URL + "/api/work?worker=w2&max=5")
	if err != nil {
		t.Fatal(err)
	}
	leases := decode[leaseBatch](t, r).Leases
	if len(leases) != 2 || leases[0].AssignmentID == leases[1].AssignmentID {
		t.Fatalf("leases %+v, want two slots with distinct ids", leases)
	}
	ack := decode[answerAck](t, postJSON(t, ts.URL+"/api/answers", map[string]any{
		"worker": "w2",
		"judgments": []judgmentJSON{
			{AssignmentID: leases[0].AssignmentID, Pref: "first"},
			{AssignmentID: leases[1].AssignmentID, Pref: "first"},
		},
	}))
	if len(ack.Accepted) != 2 || !ack.Accepted[0] || !ack.Accepted[1] {
		t.Fatalf("judgments accepted %v, want both", ack.Accepted)
	}
	for id, want := range map[int64]AnswerJSON{1: {A: 0, B: 1, Pref: "first"}, 2: {A: 5, B: 6, Pref: "first"}} {
		r, err := http.Get(ts.URL + "/api/rounds/" + strconv.FormatInt(id, 10))
		if err != nil {
			t.Fatal(err)
		}
		got := decode[struct {
			Done    bool         `json:"done"`
			Answers []AnswerJSON `json:"answers"`
		}](t, r)
		if !got.Done || len(got.Answers) != 1 || got.Answers[0] != want {
			t.Errorf("round %d = %+v, want done with %+v", id, got, want)
		}
	}
}
