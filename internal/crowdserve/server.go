// Package crowdserve is an AMT-style crowdsourcing marketplace over HTTP:
// a requester posts rounds of pair-wise questions, workers poll for
// assignments and submit judgments, and the requester collects
// majority-voted answers once every judgment is in.
//
// The paper ran its real-life experiments against Amazon Mechanical Turk;
// this package is the deployable substitute (see DESIGN.md's substitution
// table): the Server hosts the marketplace, Client implements
// crowd.Platform against it so every algorithm in this repository can run
// unchanged over the network, and SimulateWorkers drives a fleet of
// simulated workers against any server for end-to-end testing and demos.
//
// Wire protocol (JSON over HTTP):
//
//	POST /api/rounds            {questions: [{a,b,attr,workers}]} → {round_id}
//	GET  /api/rounds/{id}       → {done, answers: [{a,b,attr,pref}]}
//	GET  /api/work?worker=W[&max=K]
//	                            → {leases: [{assignment_id, a, b, attr}]} or 204
//	POST /api/answers           {worker, judgments: [{assignment_id, pref}], max?}
//	                            → {ok, accepted: [bool], leases?: [...]}
//	GET  /api/stats             → {rounds, questions, judgments, open,
//	                               lease_requeues, judgments_by_worker}
//	GET  /metrics               → Prometheus text exposition
//
// pref is "first", "second" or "equal"; workers is 0 (one worker) or an
// odd count up to MaxWorkersPerQuestion, so a majority always exists.
// Assignments are leased: a fetched assignment that is not answered within
// the lease duration is silently requeued for another worker, so stalled
// workers cannot wedge a round.
//
// A worker exchange carries up to one HIT's worth of work
// (crowd.QuestionsPerHIT): max, from 1 to QuestionsPerHIT (1 when absent
// from GET /api/work, none when absent from an answer), leases up to that
// many assignments under one lock hold, in the order that many one-lease
// requests would grant them, and judgments holds 1 to QuestionsPerHIT
// judgments. Each judgment is checked on its own; the reply flags it in
// accepted, in order, and a rejected judgment (foreign, lapsed, already
// answered) does not stop the others from counting. A malformed request
// is a 400 that records and leases nothing.
package crowdserve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"crowdsky/internal/crowd"
	"crowdsky/internal/telemetry"
)

// DefaultLease is how long a worker may hold an assignment before it is
// requeued.
const DefaultLease = 2 * time.Minute

// MaxWorkersPerQuestion caps the workers one question may ask for. A
// round opens one assignment per worker under the server lock, so an
// unbounded count would let one request allocate without limit; the cap
// sits far above the paper's ω (5, and 7 for escalated questions).
const MaxWorkersPerQuestion = 99

// QuestionJSON is the wire form of one pair-wise question. Workers is
// the number of judgments to collect; 0 (or absent) means one.
type QuestionJSON struct {
	A       int `json:"a"`
	B       int `json:"b"`
	Attr    int `json:"attr"`
	Workers int `json:"workers"`
}

// AnswerJSON is the wire form of an aggregated answer.
type AnswerJSON struct {
	A    int    `json:"a"`
	B    int    `json:"b"`
	Attr int    `json:"attr"`
	Pref string `json:"pref"`
}

// workItem is the wire form of one leased assignment, an element of the
// leases that GET /api/work and an answer's acknowledgement carry.
type workItem struct {
	AssignmentID int64 `json:"assignment_id"`
	A            int   `json:"a"`
	B            int   `json:"b"`
	Attr         int   `json:"attr"`
}

// leaseBatch is the body of a 200 from GET /api/work.
type leaseBatch struct {
	Leases []workItem `json:"leases"`
}

// judgmentJSON is one judgment of an answer.
type judgmentJSON struct {
	AssignmentID int64  `json:"assignment_id"`
	Pref         string `json:"pref"`
}

// answerRequest is the body of POST /api/answers: up to
// crowd.QuestionsPerHIT judgments, each accepted or rejected on its own,
// and the number of new assignments to lease with the reply.
type answerRequest struct {
	Worker    string         `json:"worker"`
	Judgments []judgmentJSON `json:"judgments"`
	Max       int            `json:"max,omitempty"`
}

// answerAck is the reply to an answer: one Accepted flag per judgment, in
// order, and the new leases.
type answerAck struct {
	OK       bool       `json:"ok"`
	Accepted []bool     `json:"accepted"`
	Leases   []workItem `json:"leases,omitempty"`
}

// prefToString and back.
func prefString(p crowd.Preference) string { return p.String() }

// parsePref maps a wire preference to its enum, rejecting anything
// outside the three literals — crowd input never reaches crowd.Preference
// unvalidated.
func parsePref(s string) (crowd.Preference, error) {
	switch s {
	case "first":
		return crowd.First, nil
	case "second":
		return crowd.Second, nil
	case "equal":
		return crowd.Equal, nil
	}
	return 0, fmt.Errorf("crowdserve: unknown preference %q", s)
}

// cleanWorkerID validates a worker identifier from the wire before it
// keys any persistent server state (voter sets, per-worker accounting):
// non-empty, at most 128 bytes, restricted to [A-Za-z0-9._-]. The
// simulated workers ("sim-0", "sim-1", ...) and every human-assigned id
// in the fleet fit; anything else is rejected with a 400 by the caller.
func cleanWorkerID(s string) (string, bool) {
	if s == "" || len(s) > 128 || !safeToken(s) {
		return "", false
	}
	return s, true
}

// cleanIdemKey validates an Idempotency-Key header value before it keys
// the replay map. Client-minted keys are a hex session id plus a
// sequence number ("3f..e2-17"), well inside the same token charset; the
// length cap bounds what one client can park in s.idem per entry.
func cleanIdemKey(s string) (string, bool) {
	if s == "" || len(s) > 200 || !safeToken(s) {
		return "", false
	}
	return s, true
}

// safeToken reports whether s contains only [A-Za-z0-9._-]. It touches
// no memory beyond s, so the hot handlers can validate without
// allocating.
func safeToken(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// assignment is one (question, worker slot) unit of work.
type assignment struct {
	id       int64
	roundID  int64
	qIndex   int
	question QuestionJSON

	leasedTo    string
	leaseExpiry time.Time
	done        bool

	// Lifecycle instrumentation: enqueuedAt feeds the lease-wait
	// histogram (enqueue→lease), leasedAt the judgment-latency histogram
	// (lease→answer); the spans mirror the same intervals in the round's
	// trace. Both times reset when a lapsed lease requeues the slot.
	enqueuedAt time.Time
	leasedAt   time.Time
	waitSpan   *telemetry.Span
	judgeSpan  *telemetry.Span
}

// round is one batch of questions posted by the requester.
type round struct {
	id        int64
	questions []QuestionJSON
	votes     [][]crowd.Preference // per question
	voters    []map[string]bool    // per question: workers who already voted
	needed    []int                // workers per question
	remaining int                  // unanswered assignments

	// traceID is the requester's trace (from the POST's traceparent or
	// the server's own span); it keys histogram exemplars even when
	// server-side tracing is off. span/spanCtx carry the server_round
	// span that the lease/judgment/vote spans parent under; resolved
	// latches the one-time vote_resolve span.
	traceID  string
	span     *telemetry.Span
	spanCtx  context.Context
	resolved bool
}

// Server is the marketplace state plus its HTTP handler.
type Server struct {
	mu          sync.Mutex
	nextRoundID int64                 // skylint:guardedby mu
	nextAssign  int64                 // skylint:guardedby mu
	rounds      map[int64]*round      // skylint:guardedby mu
	queue       []*assignment         // skylint:guardedby mu — open assignments in FIFO order
	leased      map[int64]*assignment // skylint:guardedby mu
	lease       time.Duration         // skylint:guardedby mu
	now         func() time.Time

	judgments int            // skylint:guardedby mu
	requeues  int            // skylint:guardedby mu — assignments requeued after a lapsed lease
	perWorker map[string]int // skylint:guardedby mu — judgments submitted per worker id

	// idem maps an Idempotency-Key to the round it created, so a client
	// retrying a POST /api/rounds whose response was lost gets the
	// original round back instead of a duplicate (and a duplicate bill).
	// Persisted in snapshots: a replayed retry must survive a server
	// restart too.
	idem map[string]int64 // skylint:guardedby mu

	// reapScratch is reused across reapExpiredLocked calls so the common
	// nothing-expired poll never allocates.
	reapScratch []*assignment // skylint:guardedby mu

	// Telemetry: the registry backs GET /metrics; the counters mirror the
	// mutex-guarded accounting above so dashboards can scrape without
	// hitting the stats endpoint.
	reg           *telemetry.Registry
	httpm         *telemetry.HTTPMetrics
	mRounds       *telemetry.Counter
	mQuestions    *telemetry.Counter
	mJudgments    *telemetry.Counter
	mRequeues     *telemetry.Counter
	mWriteErrs    *telemetry.Counter
	mIdemReplays  *telemetry.Counter
	mLeaseWait    *telemetry.Histogram
	mJudgeLatency *telemetry.Histogram
	// trace receives the marketplace's spans (server rounds, lease waits,
	// judgments, vote resolution); nil disables them. Set via SetTracer
	// before Handler.
	trace telemetry.Tracer
}

// leaseBuckets extends the default buckets into the crowd-latency range:
// human judgment and queue waits run to minutes (the paper's Q3 HITs
// averaged 93 seconds), far beyond HTTP-scale defaults.
var leaseBuckets = append(append([]float64(nil), telemetry.DefBuckets...), 30, 60, 120, 300)

// NewServer creates an empty marketplace with the default lease.
func NewServer() *Server {
	s := &Server{
		rounds:    make(map[int64]*round),
		leased:    make(map[int64]*assignment),
		lease:     DefaultLease,
		now:       time.Now,
		perWorker: make(map[string]int),
		idem:      make(map[string]int64),
		reg:       telemetry.NewRegistry(),
	}
	s.httpm = telemetry.NewHTTPMetrics(s.reg, "crowdserve")
	s.mRounds = s.reg.NewCounter("crowdserve_rounds_total", "Rounds posted by requesters.")
	s.mQuestions = s.reg.NewCounter("crowdserve_questions_total", "Questions posted across all rounds.")
	s.mJudgments = s.reg.NewCounter("crowdserve_judgments_total", "Worker judgments accepted.")
	s.mRequeues = s.reg.NewCounter("crowdserve_lease_requeues_total", "Assignments requeued after a lapsed lease.")
	s.mWriteErrs = s.reg.NewCounter("crowdserve_response_write_errors_total", "Responses that failed to encode or send (client gone, broken pipe).")
	s.mIdemReplays = s.reg.NewCounter("crowdserve_idempotent_replays_total", "Round submissions answered from the idempotency-key cache instead of creating a duplicate round.")
	s.mLeaseWait = s.reg.NewHistogram("crowdserve_lease_wait_seconds",
		"Queue wait from assignment enqueue to worker lease.", leaseBuckets...)
	s.mJudgeLatency = s.reg.NewHistogram("crowdserve_judgment_latency_seconds",
		"Worker think time from lease to accepted judgment.", leaseBuckets...)
	s.reg.NewGaugeFunc("crowdserve_open_assignments", "Assignments currently queued or leased.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.queue) + len(s.leased))
	})
	return s
}

// Metrics returns the server's telemetry registry, for embedding the
// marketplace metrics into a larger process-wide registry page or for
// tests.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// SetTracer enables span emission for the marketplace's round/lease/
// judgment lifecycle and for per-request HTTP server spans. Call before
// Handler and before serving traffic; typically wired to the same JSONL
// stream as the requester's `-trace` via a separate file merged by
// skytrace.
func (s *Server) SetTracer(t telemetry.Tracer) {
	s.trace = t
	s.httpm.SetTracer(t)
}

// SetLease overrides the assignment lease duration (tests use short
// leases).
func (s *Server) SetLease(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lease = d
}

// Handler returns the HTTP handler serving the marketplace API. Every
// route is instrumented with request counters and latency histograms; the
// route label is the registration pattern, not the raw path, so metric
// cardinality stays bounded.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /api/rounds", s.httpm.WrapFunc("/api/rounds", s.handlePostRound))
	mux.Handle("GET /api/rounds/", s.httpm.WrapFunc("/api/rounds/{id}", s.handleGetRound))
	mux.Handle("GET /api/work", s.httpm.WrapFunc("/api/work", s.handleGetWork))
	mux.Handle("POST /api/answers", s.httpm.WrapFunc("/api/answers", s.handlePostAnswer))
	mux.Handle("GET /api/stats", s.httpm.WrapFunc("/api/stats", s.handleStats))
	mux.Handle("GET /metrics", s.reg.Handler())
	return mux
}

// writeJSON sends a JSON response. The status line is already on the wire
// when Encode runs, so an encode failure cannot change the response — but
// it must not vanish either: it means a worker or requester received a
// truncated body (client disconnect, broken pipe), which shows up as the
// crowdserve_response_write_errors_total counter for dashboards to alarm on.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.mWriteErrs.Inc()
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, map[string]string{"error": msg})
}

func (s *Server) handlePostRound(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Questions []QuestionJSON `json:"questions"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if len(body.Questions) == 0 {
		s.writeError(w, http.StatusBadRequest, "round has no questions")
		return
	}
	for i, q := range body.Questions {
		// An even count could split its votes evenly, and a tie reads as
		// Equal whatever the pair's truth.
		if q.Workers < 0 || q.Workers > MaxWorkersPerQuestion || q.Workers != 0 && q.Workers%2 == 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("question %d: workers %d is not 0 or an odd count up to %d", i, q.Workers, MaxWorkersPerQuestion))
			return
		}
	}
	idemKey := ""
	if raw := r.Header.Get("Idempotency-Key"); raw != "" {
		var ok bool
		if idemKey, ok = cleanIdemKey(raw); !ok {
			s.writeError(w, http.StatusBadRequest, "invalid Idempotency-Key")
			return
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// A retried submission whose original attempt landed (but whose
	// response was lost in transit) replays the original round: same id,
	// same 201, zero new work posted — the client is never double-charged.
	if idemKey != "" {
		if id, ok := s.idem[idemKey]; ok {
			s.mIdemReplays.Inc()
			s.writeJSON(w, http.StatusCreated, map[string]int64{"round_id": id})
			return
		}
	}
	s.nextRoundID++
	rd := &round{
		id:        s.nextRoundID,
		questions: body.Questions,
		votes:     make([][]crowd.Preference, len(body.Questions)),
		voters:    make([]map[string]bool, len(body.Questions)),
		needed:    make([]int, len(body.Questions)),
	}
	// The round joins the requester's trace: the middleware already
	// extracted the traceparent header (and opened the http span) into
	// the request context, so the server_round span — and through it
	// every lease/judgment span — shares the caller's trace ID.
	rd.spanCtx, rd.span = telemetry.StartSpan(r.Context(), s.trace, "server_round")
	rd.traceID = telemetry.ActiveSpanContext(rd.spanCtx).TraceID
	rd.span.SetAttr("round_id", strconv.FormatInt(rd.id, 10))
	rd.span.SetAttr("questions", strconv.Itoa(len(body.Questions)))
	for i := range rd.voters {
		rd.voters[i] = make(map[string]bool)
	}
	now := s.now()
	for i, q := range body.Questions {
		workers := max(q.Workers, 1)
		rd.needed[i] = workers
		rd.remaining += workers
		// Full capacity up front: the per-judgment append in
		// handlePostAnswer must never grow on the hot serving path.
		rd.votes[i] = make([]crowd.Preference, 0, workers)
		for k := 0; k < workers; k++ {
			s.nextAssign++
			a := &assignment{
				id:         s.nextAssign,
				roundID:    rd.id,
				qIndex:     i,
				question:   q,
				enqueuedAt: now,
			}
			a.waitSpan = s.startAssignmentSpan(rd, a, "lease_wait")
			s.queue = append(s.queue, a)
		}
	}
	s.rounds[rd.id] = rd
	if idemKey != "" {
		s.idem[idemKey] = rd.id
	}
	s.mRounds.Inc()
	s.mQuestions.Add(uint64(len(body.Questions)))
	s.writeJSON(w, http.StatusCreated, map[string]int64{"round_id": rd.id})
}

// startAssignmentSpan opens a per-assignment span (lease_wait or
// judgment) under the round's span, stamped with the pair so skytrace's
// -top can rank slow questions.
func (s *Server) startAssignmentSpan(rd *round, a *assignment, name string) *telemetry.Span {
	if s.trace == nil {
		return nil
	}
	_, span := telemetry.StartSpan(rd.spanCtx, s.trace, name)
	span.SetAttr("assignment", strconv.FormatInt(a.id, 10))
	span.SetAttr("a", strconv.Itoa(a.question.A))
	span.SetAttr("b", strconv.Itoa(a.question.B))
	span.SetAttr("attr", strconv.Itoa(a.question.Attr))
	return span
}

func (s *Server) handleGetRound(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/api/rounds/")
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid round id")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rd, ok := s.rounds[id]
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown round")
		return
	}
	type resp struct {
		Done    bool         `json:"done"`
		Answers []AnswerJSON `json:"answers,omitempty"`
	}
	if rd.remaining > 0 {
		s.writeJSON(w, http.StatusOK, resp{Done: false})
		return
	}
	// The first completed read resolves the votes; span it once so the
	// phase table can attribute voting time separately from crowd wait.
	var vspan *telemetry.Span
	if !rd.resolved {
		rd.resolved = true
		_, vspan = telemetry.StartSpan(rd.spanCtx, s.trace, "vote_resolve")
		vspan.SetAttr("questions", strconv.Itoa(len(rd.questions)))
	}
	out := resp{Done: true}
	for i, q := range rd.questions {
		out.Answers = append(out.Answers, AnswerJSON{
			A: q.A, B: q.B, Attr: q.Attr,
			Pref: prefString(crowd.MajorityVote(rd.votes[i])),
		})
	}
	vspan.End()
	s.writeJSON(w, http.StatusOK, out)
}

// handleGetWork leases up to max of the polling worker's next compatible
// assignments, one when max is absent, or answers 204 when there is none.
// Idle workers poll here in a loop; busy ones lease through POST
// /api/answers instead.
func (s *Server) handleGetWork(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	worker, ok := cleanWorkerID(q.Get("worker"))
	if !ok {
		s.writeError(w, http.StatusBadRequest, "missing or invalid worker id")
		return
	}
	limit := 1
	if q.Has("max") {
		if limit, ok = parseMax(q.Get("max")); !ok {
			s.writeError(w, http.StatusBadRequest, "max must be an integer from 1 to 5")
			return
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var jobs [crowd.QuestionsPerHIT]workItem
	n := s.leaseLocked(worker, jobs[:limit])
	if n == 0 {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.writeJSON(w, http.StatusOK, leaseBatch{Leases: jobs[:n]})
}

// parseMax validates a wire lease count: an integer from 1 to
// crowd.QuestionsPerHIT.
func parseMax(raw string) (int, bool) {
	n, err := strconv.Atoi(raw)
	return n, err == nil && n >= 1 && n <= crowd.QuestionsPerHIT
}

// leaseLocked fills jobs with the worker's next leases, one
// leaseNextLocked call each, and returns how many it granted; it stops at
// the first miss.
func (s *Server) leaseLocked(worker string, jobs []workItem) int {
	for i := range jobs {
		job, ok := s.leaseNextLocked(worker)
		if !ok {
			return i
		}
		jobs[i] = job
	}
	return len(jobs)
}

// leaseNextLocked leases the first open assignment, in FIFO order, that
// the worker may take, and returns its wire form; ok is false when
// nothing compatible is open. It is the one place a lease is granted, whether the worker polled
// GET /api/work or asked for its next jobs with an answer. Steady-state
// lease bookkeeping and queue rotation must not allocate.
func (s *Server) leaseNextLocked(worker string) (job workItem, ok bool) {
	s.reapExpiredLocked()
	for i, a := range s.queue {
		// A worker must not vote twice on one question: skip slots of
		// questions the worker already holds or already answered.
		if s.workerHasQuestionLocked(worker, a) {
			continue
		}
		now := s.now()
		a.leasedTo = worker
		a.leasedAt = now
		a.leaseExpiry = now.Add(s.lease)
		s.leased[a.id] = a
		// Shift-down delete keeps FIFO order without append's allocation
		// ambiguity (and drops the trailing pointer so the leased
		// assignment is not retained twice).
		copy(s.queue[i:], s.queue[i+1:])
		s.queue[len(s.queue)-1] = nil
		s.queue = s.queue[:len(s.queue)-1]
		rd := s.rounds[a.roundID]
		if !a.enqueuedAt.IsZero() {
			s.mLeaseWait.ObserveExemplar(now.Sub(a.enqueuedAt).Seconds(), rd.traceID)
		}
		a.waitSpan.SetAttr("worker", worker)
		a.waitSpan.End()
		a.waitSpan = nil
		a.judgeSpan = s.startAssignmentSpan(rd, a, "judgment")
		a.judgeSpan.SetAttr("worker", worker)
		return workItem{AssignmentID: a.id, A: a.question.A, B: a.question.B, Attr: a.question.Attr}, true
	}
	return workItem{}, false
}

// workerHasQuestionLocked reports whether the worker currently leases
// another slot of the same question or has already answered it.
func (s *Server) workerHasQuestionLocked(worker string, a *assignment) bool {
	if rd, ok := s.rounds[a.roundID]; ok && rd.voters[a.qIndex][worker] {
		return true
	}
	for _, l := range s.leased {
		if l.leasedTo == worker && !l.done && l.roundID == a.roundID && l.qIndex == a.qIndex {
			return true
		}
	}
	return false
}

// reapExpiredLocked requeues leased assignments whose lease lapsed.
// Expired assignments re-enter the queue in ascending id order so the
// marketplace hands out work deterministically for identical state (map
// iteration order would shuffle them).
func (s *Server) reapExpiredLocked() {
	now := s.now()
	expired := s.reapScratch[:0]
	for _, a := range s.leased {
		if !a.done && a.leaseExpiry.Before(now) {
			expired = append(expired, a)
		}
	}
	s.reapScratch = expired[:0]
	sort.Slice(expired, func(i, j int) bool { return expired[i].id < expired[j].id })
	for _, a := range expired {
		a.leasedTo = ""
		delete(s.leased, a.id)
		// Close the abandoned judgment span and restart the queue-wait
		// clock: the slot is back in line for another worker.
		a.judgeSpan.SetAttr("requeued", "true")
		a.judgeSpan.End()
		a.judgeSpan = nil
		a.enqueuedAt = now
		a.leasedAt = time.Time{}
		if rd, ok := s.rounds[a.roundID]; ok {
			a.waitSpan = s.startAssignmentSpan(rd, a, "lease_wait")
		}
		s.queue = append(s.queue, a)
		s.requeues++
		s.mRequeues.Inc()
	}
}

// handlePostAnswer records a worker's judgments and then leases up to max
// of the worker's next assignments under the same lock hold. A body with
// any field besides worker, judgments and max is a 400. Vote recording
// appends into capacity reserved at round creation, and only telemetry
// and the response allocate.
func (s *Server) handlePostAnswer(w http.ResponseWriter, r *http.Request) {
	var body answerRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	judgments, limit := body.Judgments, body.Max
	if len(judgments) == 0 || len(judgments) > crowd.QuestionsPerHIT {
		s.writeError(w, http.StatusBadRequest, "judgments must hold 1 to 5 judgments")
		return
	}
	if limit < 0 || limit > crowd.QuestionsPerHIT {
		s.writeError(w, http.StatusBadRequest, "max must be absent or an integer from 1 to 5")
		return
	}
	var prefs [crowd.QuestionsPerHIT]crowd.Preference
	for i, j := range judgments {
		pref, err := parsePref(j.Pref)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		prefs[i] = pref
	}
	worker, ok := cleanWorkerID(body.Worker)
	if !ok {
		s.writeError(w, http.StatusBadRequest, "missing or invalid worker id")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var accepted [crowd.QuestionsPerHIT]bool
	for i, j := range judgments {
		accepted[i] = s.recordJudgmentLocked(worker, j.AssignmentID, prefs[i], j.Pref)
	}
	var jobs [crowd.QuestionsPerHIT]workItem
	n := s.leaseLocked(worker, jobs[:limit])
	s.writeJSON(w, http.StatusOK, answerAck{OK: true, Accepted: accepted[:len(judgments)], Leases: jobs[:n]})
}

// recordJudgmentLocked records one judgment and reports whether it did:
// the assignment must be leased, not yet answered, leased to this worker,
// and the worker must not have voted on its question yet.
func (s *Server) recordJudgmentLocked(worker string, id int64, pref crowd.Preference, wirePref string) bool {
	a, ok := s.leased[id]
	if !ok || a.done || a.leasedTo != worker {
		return false
	}
	rd := s.rounds[a.roundID]
	if rd.voters[a.qIndex][worker] {
		return false
	}
	a.done = true
	delete(s.leased, id)
	if !a.leasedAt.IsZero() {
		s.mJudgeLatency.ObserveExemplar(s.now().Sub(a.leasedAt).Seconds(), rd.traceID)
	}
	a.judgeSpan.SetAttr("pref", wirePref)
	a.judgeSpan.End()
	a.judgeSpan = nil
	// Capacity for every vote is reserved at round creation: this append never grows.
	rd.votes[a.qIndex] = append(rd.votes[a.qIndex], pref)
	rd.voters[a.qIndex][worker] = true
	rd.remaining--
	if rd.remaining == 0 {
		// Every judgment is in; the round's crowd part is over (the
		// requester's next poll resolves the votes).
		rd.span.End()
	}
	s.judgments++
	s.perWorker[worker]++
	s.mJudgments.Inc()
	return true
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reapExpiredLocked()
	open := len(s.queue) + len(s.leased)
	questions := 0
	for _, rd := range s.rounds {
		questions += len(rd.questions)
	}
	byWorker := make(map[string]int, len(s.perWorker))
	for id, n := range s.perWorker {
		byWorker[id] = n
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"rounds":              len(s.rounds),
		"questions":           questions,
		"judgments":           s.judgments,
		"open":                open,
		"lease_requeues":      s.requeues,
		"judgments_by_worker": byWorker,
	})
}
