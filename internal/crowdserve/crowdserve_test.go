package crowdserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdsky/internal/core"
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/faultinject"
	"crowdsky/internal/metrics"
	"crowdsky/internal/skyline"
	"crowdsky/internal/telemetry"
	"crowdsky/internal/voting"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t testing.TB, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t testing.TB, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestMarketplaceLifecycle drives one round through the raw HTTP API:
// post, fetch work, answer, collect.
// slOptions is the full pruning configuration under skyline-layer
// scheduling, the requester setting of the end-to-end tests.
func slOptions() core.Options {
	opts := core.AllPruning()
	opts.Schedule = core.BySkylineLayers
	return opts
}

func TestMarketplaceLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	resp := postJSON(t, ts.URL+"/api/rounds", map[string]any{
		"questions": []QuestionJSON{{A: 0, B: 1, Attr: 0, Workers: 3}},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post round: %s", resp.Status)
	}
	round := decode[map[string]int64](t, resp)
	id := round["round_id"]

	// Round not done yet.
	resp, err := http.Get(ts.URL + "/api/rounds/1")
	if err != nil {
		t.Fatal(err)
	}
	status := decode[struct {
		Done bool `json:"done"`
	}](t, resp)
	if status.Done {
		t.Fatalf("round done before any judgment")
	}

	// Three distinct workers answer; the same worker cannot take two
	// slots of one question.
	for w := 0; w < 3; w++ {
		worker := string(rune('a' + w))
		resp, err := http.Get(ts.URL + "/api/work?worker=" + worker)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("worker %s got %s", worker, resp.Status)
		}
		job := decode[workItem](t, resp)
		// The same worker asking again gets nothing (single question).
		again, err := http.Get(ts.URL + "/api/work?worker=" + worker)
		if err != nil {
			t.Fatal(err)
		}
		if again.StatusCode != http.StatusNoContent {
			t.Fatalf("worker %s given a second slot of the same question: %s", worker, again.Status)
		}
		again.Body.Close()
		pref := "first"
		if w == 2 {
			pref = "second" // minority vote
		}
		resp = postJSON(t, ts.URL+"/api/answers", map[string]any{
			"assignment_id": job.AssignmentID, "worker": worker, "pref": pref,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("answer: %s", resp.Status)
		}
		resp.Body.Close()
	}

	resp, err = http.Get(ts.URL + "/api/rounds/" + itoa64(id))
	if err != nil {
		t.Fatal(err)
	}
	final := decode[struct {
		Done    bool         `json:"done"`
		Answers []AnswerJSON `json:"answers"`
	}](t, resp)
	if !final.Done || len(final.Answers) != 1 {
		t.Fatalf("final = %+v", final)
	}
	if final.Answers[0].Pref != "first" {
		t.Errorf("majority = %s, want first", final.Answers[0].Pref)
	}
}

func itoa64(v int64) string {
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if i == len(buf) {
		return "0"
	}
	return string(buf[i:])
}

// TestLeaseExpiry: an unanswered assignment returns to the queue after its
// lease lapses, so another worker can take it.
func TestLeaseExpiry(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.SetLease(1 * time.Millisecond)

	resp := postJSON(t, ts.URL+"/api/rounds", map[string]any{
		"questions": []QuestionJSON{{A: 0, B: 1, Attr: 0, Workers: 1}},
	})
	resp.Body.Close()

	resp, err := http.Get(ts.URL + "/api/work?worker=slacker")
	if err != nil {
		t.Fatal(err)
	}
	job := decode[workItem](t, resp)
	time.Sleep(5 * time.Millisecond)

	// Another worker gets the requeued assignment.
	resp, err = http.Get(ts.URL + "/api/work?worker=diligent")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("requeued assignment not handed out: %s", resp.Status)
	}
	job2 := decode[workItem](t, resp)
	if job2.A != job.A || job2.B != job.B {
		t.Errorf("different question after requeue")
	}
	// The slacker's late answer is rejected.
	resp = postJSON(t, ts.URL+"/api/answers", map[string]any{
		"assignment_id": job.AssignmentID, "worker": "slacker", "pref": "first",
	})
	if resp.StatusCode == http.StatusOK {
		t.Errorf("expired lease accepted an answer")
	}
	resp.Body.Close()
	// The diligent worker's answer lands.
	resp = postJSON(t, ts.URL+"/api/answers", map[string]any{
		"assignment_id": job2.AssignmentID, "worker": "diligent", "pref": "second",
	})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("valid answer rejected: %s", resp.Status)
	}
	resp.Body.Close()
}

func TestServerValidation(t *testing.T) {
	_, ts := newTestServer(t)
	// Empty round.
	resp := postJSON(t, ts.URL+"/api/rounds", map[string]any{"questions": []QuestionJSON{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty round: %s", resp.Status)
	}
	resp.Body.Close()
	// Unknown round.
	r, err := http.Get(ts.URL + "/api/rounds/999")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown round: %s", r.Status)
	}
	r.Body.Close()
	// Missing worker id.
	r, err = http.Get(ts.URL + "/api/work")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("missing worker: %s", r.Status)
	}
	r.Body.Close()
	// Bad preference.
	resp = postJSON(t, ts.URL+"/api/answers", map[string]any{
		"assignment_id": 1, "worker": "w", "pref": "maybe",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad pref: %s", resp.Status)
	}
	resp.Body.Close()
	// Answer to an unleased assignment.
	resp = postJSON(t, ts.URL+"/api/answers", map[string]any{
		"assignment_id": 42, "worker": "w", "pref": "first",
	})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("unleased answer: %s", resp.Status)
	}
	resp.Body.Close()
}

// TestEndToEndSkylineOverHTTP is the flagship integration test: the full
// CrowdSky algorithm runs over the HTTP marketplace against a fleet of
// simulated workers, and recovers the paper's toy skyline.
func TestEndToEndSkylineOverHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	d := dataset.Toy()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workersDone := make(chan struct{})
	go func() {
		defer close(workersDone)
		SimulateWorkers(ctx, ts.URL, WorkerConfig{
			Count:        4,
			Truth:        crowd.DatasetTruth{Data: d},
			Reliability:  1.0,
			PollInterval: 2 * time.Millisecond,
			Seed:         1,
		})
	}()

	client := NewClient(ts.URL)
	client.PollInterval = 2 * time.Millisecond
	res := core.Run(d, client, slOptions())

	cancel()
	<-workersDone

	want := skyline.OracleSkyline(d)
	if !metrics.SameSet(res.Skyline, want) {
		t.Errorf("skyline over HTTP = %v, want %v", res.Skyline, want)
	}
	if res.Questions != 12 || res.Rounds != 6 {
		t.Errorf("HTTP run: %d questions in %d rounds, want 12 in 6", res.Questions, res.Rounds)
	}
}

// TestEndToEndMajorityVotingOverHTTP: noisy workers with 3-worker majority
// voting still answer; the run completes and the stats add up.
func TestEndToEndMajorityVotingOverHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	d := dataset.Toy()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workersDone := make(chan struct{})
	go func() {
		defer close(workersDone)
		SimulateWorkers(ctx, ts.URL, WorkerConfig{
			Count:        6,
			Truth:        crowd.DatasetTruth{Data: d},
			Reliability:  0.9,
			PollInterval: 2 * time.Millisecond,
			Seed:         7,
		})
	}()

	client := NewClient(ts.URL)
	client.PollInterval = 2 * time.Millisecond
	opts := core.AllPruning()
	opts.Voting = voting.Static{Omega: 3}
	res := core.Run(d, client, opts)

	cancel()
	<-workersDone

	if res.WorkerAnswers != 3*res.Questions {
		t.Errorf("worker answers %d != 3 × %d", res.WorkerAnswers, res.Questions)
	}
	if len(res.Skyline) == 0 {
		t.Errorf("empty skyline")
	}
}

// TestClientEmptyAsk: an empty round is a no-op without network traffic.
func TestClientEmptyAsk(t *testing.T) {
	client := NewClient("http://unreachable.invalid")
	if client.Ask(nil) != nil {
		t.Errorf("empty ask returned answers")
	}
	if client.Stats().Rounds() != 0 {
		t.Errorf("empty ask consumed a round")
	}
}

// TestPostRoundWorkersValidated: a round asking for a negative worker
// count, or for more than MaxWorkersPerQuestion, is a 400 that opens no
// assignment, even when its other questions are valid; an absent or zero
// count opens one.
func TestPostRoundWorkersValidated(t *testing.T) {
	_, ts := newTestServer(t)
	open := func() int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/api/stats")
		if err != nil {
			t.Fatal(err)
		}
		return decode[struct {
			Open int `json:"open"`
		}](t, resp).Open
	}
	resp := postJSON(t, ts.URL+"/api/rounds", map[string]any{
		"questions": []map[string]int{{"a": 0, "b": 1}, {"a": 2, "b": 3, "workers": 0}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("round without worker counts: %s", resp.Status)
	}
	if got := open(); got != 2 {
		t.Fatalf("open = %d after two one-worker questions; want 2", got)
	}
	for _, workers := range []int{-2, -1, MaxWorkersPerQuestion + 1, 1 << 40} {
		resp := postJSON(t, ts.URL+"/api/rounds", map[string]any{
			"questions": []map[string]int{{"a": 4, "b": 5, "workers": 1}, {"a": 0, "b": 1, "workers": workers}},
		})
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("workers %d: %s; want 400", workers, resp.Status)
		}
		if got := open(); got != 2 {
			t.Fatalf("workers %d: open = %d; want 2, unchanged", workers, got)
		}
	}
	resp = postJSON(t, ts.URL+"/api/rounds", map[string]any{
		"questions": []QuestionJSON{{A: 0, B: 1, Workers: MaxWorkersPerQuestion}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("workers at the cap: %s", resp.Status)
	}
	if got := open(); got != 2+MaxWorkersPerQuestion {
		t.Fatalf("open = %d after a question at the cap; want %d", got, 2+MaxWorkersPerQuestion)
	}
}

// TestStatsEndpointShape checks the JSON shape of GET /api/stats including
// the lease-requeue and per-worker judgment extensions.
func TestStatsEndpointShape(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.SetLease(1 * time.Millisecond)

	resp := postJSON(t, ts.URL+"/api/rounds", map[string]any{
		"questions": []QuestionJSON{
			{A: 0, B: 1, Attr: 0, Workers: 1},
			{A: 2, B: 3, Attr: 0, Workers: 1},
		},
	})
	resp.Body.Close()

	// First worker leases an assignment and lets it lapse (one requeue);
	// a second worker answers both questions.
	resp, err := http.Get(ts.URL + "/api/work?worker=slacker")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	time.Sleep(5 * time.Millisecond)
	for i := 0; i < 2; i++ {
		resp, err = http.Get(ts.URL + "/api/work?worker=diligent")
		if err != nil {
			t.Fatal(err)
		}
		job := decode[workItem](t, resp)
		resp = postJSON(t, ts.URL+"/api/answers", map[string]any{
			"assignment_id": job.AssignmentID, "worker": "diligent", "pref": "first",
		})
		resp.Body.Close()
	}

	resp, err = http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	type statsResp struct {
		Rounds            int            `json:"rounds"`
		Questions         int            `json:"questions"`
		Judgments         int            `json:"judgments"`
		Open              int            `json:"open"`
		LeaseRequeues     int            `json:"lease_requeues"`
		JudgmentsByWorker map[string]int `json:"judgments_by_worker"`
	}
	st := decode[statsResp](t, resp)
	if st.Rounds != 1 || st.Questions != 2 || st.Judgments != 2 || st.Open != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.LeaseRequeues != 1 {
		t.Errorf("lease_requeues = %d, want 1", st.LeaseRequeues)
	}
	if st.JudgmentsByWorker["diligent"] != 2 || st.JudgmentsByWorker["slacker"] != 0 {
		t.Errorf("judgments_by_worker = %v", st.JudgmentsByWorker)
	}
}

// TestMetricsEndpoint scrapes GET /metrics after a round completes and
// checks the Prometheus exposition carries the marketplace counters and
// the per-route HTTP latency histograms.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/api/rounds", map[string]any{
		"questions": []QuestionJSON{{A: 0, B: 1, Attr: 0, Workers: 1}},
	})
	resp.Body.Close()
	resp, err := http.Get(ts.URL + "/api/work?worker=w1")
	if err != nil {
		t.Fatal(err)
	}
	job := decode[workItem](t, resp)
	resp = postJSON(t, ts.URL+"/api/answers", map[string]any{
		"assignment_id": job.AssignmentID, "worker": "w1", "pref": "first",
	})
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	for _, line := range []string{
		"crowdserve_rounds_total 1",
		"crowdserve_questions_total 1",
		"crowdserve_judgments_total 1",
		"crowdserve_lease_requeues_total 0",
		"crowdserve_open_assignments 0",
		`crowdserve_http_requests_total{route="/api/rounds",method="POST",code="201"} 1`,
		`crowdserve_http_request_seconds_count{route="/api/answers"} 1`,
		"# TYPE crowdserve_http_request_seconds histogram",
	} {
		if !strings.Contains(body, line+"\n") {
			t.Errorf("metrics missing %q", line)
		}
	}
}

// TestMetricFamiliesMatchSchema puts a marketplace (its HTTP middleware
// included), a client and a fault plan on one registry, drives each until
// every family has a sample, and checks every family in the exposition
// against the schema with telemetry.ValidateMetric, label names included.
// Every schema family must be present too, so renaming or relabelling any
// registration fails here, not only the lines TestMetricsEndpoint pins.
func TestMetricFamiliesMatchSchema(t *testing.T) {
	srv, ts := newTestServer(t)
	reg := srv.Metrics()
	c := NewClient(ts.URL)
	c.PollInterval = time.Millisecond
	c.InstrumentMetrics(reg)
	plan := faultinject.NewPlan(1)
	plan.InstrumentMetrics(reg)
	plan.Record(faultinject.KindHTTP503)

	// The round stays open until the client has re-polled it, so the
	// client's retry family has a sample before the answer lands.
	asked := make(chan []crowd.Answer, 1)
	go func() {
		asked <- c.Ask([]crowd.Request{{Q: crowd.Question{A: 0, B: 1}, Workers: 1}})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(scrape(t, reg), "crowdserve_client_retries_total{") {
		if time.Now().After(deadline) {
			t.Fatal("the client never re-polled its open round")
		}
		time.Sleep(time.Millisecond)
	}
	job, ok := getWork(t, ts.URL, "w1")
	if !ok {
		t.Fatal("no work for the posted round")
	}
	postJSON(t, ts.URL+"/api/answers", map[string]any{
		"assignment_id": job.AssignmentID, "worker": "w1", "pref": "first",
	}).Body.Close()
	if got := <-asked; len(got) != 1 {
		t.Fatalf("Ask returned %d answers, want 1", len(got))
	}

	kinds := make(map[string]string)    // family -> its TYPE
	labels := make(map[string][]string) // family -> label names of its samples
	labelRE := regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="(?:[^"\\]|\\.)*"`)
	for _, line := range strings.Split(scrape(t, reg), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			kinds[name] = kind
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, _, _ := strings.Cut(line, " ")
		name, rest, _ := strings.Cut(series, "{")
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && kinds[base] == "histogram" {
				family = base
			}
		}
		if _, ok := kinds[family]; !ok {
			t.Errorf("sample %q belongs to no declared family", line)
			continue
		}
		var names []string
		for _, m := range labelRE.FindAllStringSubmatch(rest, -1) {
			if m[1] != "le" {
				names = append(names, m[1])
			}
		}
		if prev, seen := labels[family]; seen && !slices.Equal(prev, names) {
			t.Errorf("%s: samples disagree on labels: %v vs %v", family, prev, names)
		}
		labels[family] = names
	}
	families := make([]string, 0, len(kinds))
	for family := range kinds {
		families = append(families, family)
	}
	slices.Sort(families)
	for _, family := range families {
		names, sampled := labels[family]
		if !sampled {
			t.Errorf("%s has no sample, so its labels went unchecked", family)
			continue
		}
		if err := telemetry.ValidateMetric(family, names...); err != nil {
			t.Error(err)
		}
	}
	for _, name := range telemetry.MetricNames() {
		if _, ok := kinds[name]; !ok {
			t.Errorf("schema family %s is not registered", name)
		}
	}
}

// scrape renders reg in the Prometheus text format.
func scrape(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestStatsDuringWork polls GET /api/stats while simulated workers answer
// a round over HTTP, so the race detector checks that the stats handler
// reads the marketplace counters under the server lock.
func TestStatsDuringWork(t *testing.T) {
	_, ts := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	fleet := make(chan struct{})
	go func() {
		SimulateWorkers(ctx, ts.URL, WorkerConfig{
			Count: 3, Truth: staticTruth{}, Reliability: 1, PollInterval: time.Millisecond, Seed: 1,
		})
		close(fleet)
	}()
	defer func() {
		cancel()
		<-fleet
	}()
	var qs []QuestionJSON
	for i := 0; i < 60; i++ {
		qs = append(qs, QuestionJSON{A: i, B: i + 1, Workers: 2})
	}
	postJSON(t, ts.URL+"/api/rounds", map[string]any{"questions": qs}).Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := serverStats(t, ts.URL)
		if st.Judgments == 2*len(qs) {
			break
		}
		if st.Judgments > 2*len(qs) || time.Now().After(deadline) {
			t.Fatalf("judgments = %d, want %d", st.Judgments, 2*len(qs))
		}
	}
}

// TestPersistRequeuesAndPerWorker round-trips the new snapshot fields.
func TestPersistRequeuesAndPerWorker(t *testing.T) {
	srv := NewServer()
	srv.mu.Lock()
	srv.requeues = 3
	srv.perWorker["w1"] = 7
	srv.mu.Unlock()

	var buf bytes.Buffer
	if err := srv.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewServer()
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	restored.mu.Lock()
	defer restored.mu.Unlock()
	if restored.requeues != 3 || restored.perWorker["w1"] != 7 {
		t.Errorf("restored requeues=%d perWorker=%v", restored.requeues, restored.perWorker)
	}
}

// answerReq posts one judgment and returns the status and, on a 200, the
// decoded acknowledgement.
func answerReq(t *testing.T, baseURL string, id int64, worker, pref string, next bool) (int, answerAck) {
	t.Helper()
	resp := postJSON(t, baseURL+"/api/answers", answerRequest{AssignmentID: id, Worker: worker, Pref: pref, Next: next})
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return resp.StatusCode, answerAck{}
	}
	return resp.StatusCode, decode[answerAck](t, resp)
}

// getWork polls GET /api/work; ok is false on a 204.
func getWork(t testing.TB, baseURL, worker string) (workItem, bool) {
	t.Helper()
	resp, err := http.Get(baseURL + "/api/work?worker=" + worker)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusNoContent {
		resp.Body.Close()
		return workItem{}, false
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET /api/work: %s", resp.Status)
	}
	return decode[workItem](t, resp), true
}

// queueState is the open queue's assignment ids in order plus the number
// of active leases.
func queueState(srv *Server) (ids []int64, leased int) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for _, a := range srv.queue {
		ids = append(ids, a.id)
	}
	return ids, len(srv.leased)
}

// protocolRounds are two rounds mixing single- and multi-worker questions.
var protocolRounds = [][]QuestionJSON{
	{{A: 0, B: 1, Workers: 2}, {A: 2, B: 3, Attr: 1, Workers: 1}, {A: 4, B: 5, Workers: 3}},
	{{A: 6, B: 7, Workers: 1}, {A: 0, B: 2, Attr: 1, Workers: 2}},
}

// TestAnswerNextMatchesFetch: two workers taking turns receive the same
// assignments in the same order whether each answer asks for "next" or
// is followed by its own GET /api/work.
func TestAnswerNextMatchesFetch(t *testing.T) {
	type lease struct {
		worker string
		job    workItem
	}
	run := func(next bool) []lease {
		_, ts := newTestServer(t)
		for _, qs := range protocolRounds {
			postJSON(t, ts.URL+"/api/rounds", map[string]any{"questions": qs}).Body.Close()
		}
		workers := []string{"w1", "w2"}
		held := map[string]workItem{}
		var got []lease
		for _, w := range workers {
			if job, ok := getWork(t, ts.URL, w); ok {
				held[w] = job
				got = append(got, lease{w, job})
			}
		}
		for len(held) > 0 {
			for _, w := range workers {
				job, ok := held[w]
				if !ok {
					continue
				}
				delete(held, w)
				status, ack := answerReq(t, ts.URL, job.AssignmentID, w, "first", next)
				if status != http.StatusOK {
					t.Fatalf("answer: %d", status)
				}
				if next {
					if ack.Next != nil {
						held[w] = *ack.Next
					}
				} else if job, ok := getWork(t, ts.URL, w); ok {
					held[w] = job
				}
				if job, ok := held[w]; ok {
					got = append(got, lease{w, job})
				}
			}
		}
		return got
	}
	fetched, chained := run(false), run(true)
	// Nine slots, less the three-worker question's third, which neither
	// worker may take.
	if len(fetched) != 8 {
		t.Fatalf("fetch+answer leased %d assignments, want 8: %v", len(fetched), fetched)
	}
	if !slices.Equal(fetched, chained) {
		t.Errorf("answer+next leases differ from fetch+answer:\n got %v\nwant %v", chained, fetched)
	}
}

// TestRejectedAnswerLeasesNothing: a 400, 403 or 409 answer asking for
// "next" leaves the queue and the leases exactly as they were.
func TestRejectedAnswerLeasesNothing(t *testing.T) {
	srv, ts := newTestServer(t)
	postJSON(t, ts.URL+"/api/rounds", map[string]any{"questions": protocolRounds[0]}).Body.Close()
	job, ok := getWork(t, ts.URL, "w1")
	if !ok {
		t.Fatal("no work")
	}
	wantQueue, wantLeased := queueState(srv)
	for _, c := range []struct {
		name   string
		id     int64
		worker string
		pref   string
		status int
	}{
		{"bad preference", job.AssignmentID, "w1", "maybe", http.StatusBadRequest},
		{"bad worker id", job.AssignmentID, "w 1", "first", http.StatusBadRequest},
		{"another worker's lease", job.AssignmentID, "w2", "first", http.StatusForbidden},
		{"unleased assignment", 999, "w2", "first", http.StatusConflict},
	} {
		resp := postJSON(t, ts.URL+"/api/answers", answerRequest{AssignmentID: c.id, Worker: c.worker, Pref: c.pref, Next: true})
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
		if strings.Contains(string(body), `"next"`) {
			t.Errorf("%s: rejected answer carried a lease: %s", c.name, body)
		}
		if q, l := queueState(srv); !slices.Equal(q, wantQueue) || l != wantLeased {
			t.Errorf("%s: queue %v with %d leases, want %v with %d", c.name, q, l, wantQueue, wantLeased)
		}
	}
	// The same judgment answered twice: the second is a 409 and leases
	// nothing either.
	if status, _ := answerReq(t, ts.URL, job.AssignmentID, "w1", "first", true); status != http.StatusOK {
		t.Fatalf("valid answer: %d", status)
	}
	wantQueue, wantLeased = queueState(srv)
	if status, _ := answerReq(t, ts.URL, job.AssignmentID, "w1", "first", true); status != http.StatusConflict {
		t.Errorf("duplicate answer: status %d, want 409", status)
	}
	if q, l := queueState(srv); !slices.Equal(q, wantQueue) || l != wantLeased {
		t.Errorf("duplicate answer: queue %v with %d leases, want %v with %d", q, l, wantQueue, wantLeased)
	}
}

// TestAnswerNextSkipsVotedQuestion: on a three-worker question, "next"
// never hands a worker a second slot of a question it already voted on.
func TestAnswerNextSkipsVotedQuestion(t *testing.T) {
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/api/rounds", map[string]any{"questions": []QuestionJSON{
		{A: 0, B: 1, Workers: 3}, {A: 2, B: 3, Workers: 3},
	}}).Body.Close()
	for _, w := range []string{"w1", "w2", "w3"} {
		job, ok := getWork(t, ts.URL, w)
		seen := map[[2]int]bool{}
		for ok {
			q := [2]int{job.A, job.B}
			if seen[q] {
				t.Fatalf("%s leased a second slot of question %v", w, q)
			}
			seen[q] = true
			var ack answerAck
			if _, ack = answerReq(t, ts.URL, job.AssignmentID, w, "first", true); ack.Next != nil {
				job = *ack.Next
			}
			ok = ack.Next != nil
		}
		if len(seen) != 2 {
			t.Errorf("%s answered %d questions, want 2", w, len(seen))
		}
	}
	if _, ok := getWork(t, ts.URL, "w4"); ok {
		t.Error("work left after three workers answered every slot")
	}
}

// TestAnswerWithoutNextReplyUnchanged: an answer that does not ask for
// "next" gets the plain acknowledgement, so existing worker UIs keep
// working.
func TestAnswerWithoutNextReplyUnchanged(t *testing.T) {
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/api/rounds", map[string]any{"questions": protocolRounds[0]}).Body.Close()
	job, _ := getWork(t, ts.URL, "w1")
	resp := postJSON(t, ts.URL+"/api/answers", map[string]any{
		"assignment_id": job.AssignmentID, "worker": "w1", "pref": "first",
	})
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != `{"ok":true}` {
		t.Errorf("answer without next: %s %q, want 200 {\"ok\":true}", resp.Status, body)
	}
}

// TestLostAnswerNextReplyRequeues: when the reply to an answer+next is
// lost, the judgment still counts once and the lease it carried lapses
// back into the queue for another worker.
func TestLostAnswerNextReplyRequeues(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.SetLease(time.Millisecond)
	postJSON(t, ts.URL+"/api/rounds", map[string]any{"questions": []QuestionJSON{
		{A: 0, B: 1, Workers: 1}, {A: 2, B: 3, Workers: 1},
	}}).Body.Close()
	first, _ := getWork(t, ts.URL, "w1")
	// Pretend this reply never arrives: the worker does not learn the
	// lease it carries and resubmits its judgment.
	status, ack := answerReq(t, ts.URL, first.AssignmentID, "w1", "first", true)
	if status != http.StatusOK || ack.Next == nil {
		t.Fatalf("answer+next: %d %+v", status, ack)
	}
	stranded := *ack.Next
	if status, _ := answerReq(t, ts.URL, first.AssignmentID, "w1", "first", true); status != http.StatusConflict {
		t.Errorf("resubmitted judgment: status %d, want 409", status)
	}
	time.Sleep(5 * time.Millisecond)
	if got, ok := getWork(t, ts.URL, "w2"); !ok || got != stranded {
		t.Errorf("stranded lease not requeued: got %+v (%v), want %+v", got, ok, stranded)
	}
	if st := serverStats(t, ts.URL); st.Judgments != 1 {
		t.Errorf("judgments = %d, want 1", st.Judgments)
	}
}

// exchangeCounter counts the requests a handler served, keyed both by
// "METHOD path" and by "METHOD path status".
type exchangeCounter struct {
	next http.Handler
	mu   sync.Mutex
	n    map[string]int
}

func (c *exchangeCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
	c.next.ServeHTTP(sw, r)
	key := r.Method + " " + r.URL.Path
	c.mu.Lock()
	c.n[key]++
	c.n[fmt.Sprintf("%s %d", key, sw.code)]++
	c.mu.Unlock()
}

func (c *exchangeCounter) count(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[key]
}

type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// TestExchangeBudget pins the worker protocol's cost: over a whole
// skyline run with one simulated worker, a POST /api/answers carries a
// HIT of up to crowd.QuestionsPerHIT judgments, so a round of J judgments
// takes at most ⌈J/QuestionsPerHIT⌉ of them, and GET /api/work grants
// leases at most once per round (the round's first HIT); every later job
// arrives with an answer.
func TestExchangeBudget(t *testing.T) {
	srv := NewServer()
	counter := &exchangeCounter{next: srv.Handler(), n: map[string]int{}}
	ts := httptest.NewServer(counter)
	defer ts.Close()
	d := dataset.MustGenerate(dataset.GenerateConfig{N: 80, KnownDims: 2, CrowdDims: 1, Distribution: dataset.AntiCorrelated},
		rand.New(rand.NewSource(1)))

	ctx, cancel := context.WithCancel(context.Background())
	workersDone := make(chan struct{})
	go func() {
		defer close(workersDone)
		SimulateWorkers(ctx, ts.URL, WorkerConfig{
			Count: 1, Truth: crowd.DatasetTruth{Data: d}, Reliability: 1,
			PollInterval: time.Millisecond, Seed: 1,
		})
	}()
	client := NewClient(ts.URL)
	client.PollInterval = time.Millisecond
	res := core.Run(d, client, slOptions())
	cancel()
	<-workersDone

	if want := skyline.OracleSkyline(d); !metrics.SameSet(res.Skyline, want) {
		t.Fatalf("skyline = %v, want %v", res.Skyline, want)
	}
	rounds := counter.count("POST /api/rounds 201")
	hits := (res.WorkerAnswers + crowd.QuestionsPerHIT - 1) / crowd.QuestionsPerHIT
	if answers := counter.count("POST /api/answers"); answers > hits+rounds {
		t.Errorf("POST /api/answers = %d for %d judgments in %d rounds, want at most %d (one per HIT, plus one per round)",
			answers, res.WorkerAnswers, rounds, hits+rounds)
	}
	if leases := counter.count("GET /api/work 200"); leases > rounds {
		t.Errorf("GET /api/work leased %d times over %d rounds; answers no longer chain the next lease", leases, rounds)
	}
	t.Logf("%d judgments in %d rounds, %d answer posts", res.WorkerAnswers, rounds, counter.count("POST /api/answers"))
}
