// Chaos mode: `bench -chaos` runs a full crowd-skyline session against an
// in-process marketplace under seeded fault injection — transport resets,
// 503s, latency, truncated bodies, misbehaving workers, and a requester
// crash that tears the journal mid-write — then resumes from the
// recovered journal and checks the paper's two invariants:
//
//  1. the crowdsourced skyline equals the oracle skyline;
//  2. no answer that survived in the journal is purchased again.
//
// The run writes a JSON verdict to -out and leaves its artifacts (the
// torn journal, the recovered journal, the server-side trace) under
// -chaos-dir for CI to upload on failure. Any invariant violation exits
// non-zero — unlike the perf comparison, this is a hard gate: the
// invariants are exact properties, not machine-dependent timings.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"crowdsky/internal/core"
	"crowdsky/internal/crowd"
	"crowdsky/internal/crowdserve"
	"crowdsky/internal/dataset"
	"crowdsky/internal/faultinject"
	"crowdsky/internal/journal"
	"crowdsky/internal/metrics"
	"crowdsky/internal/skyline"
	"crowdsky/internal/telemetry"
)

// chaosReport is the JSON verdict of one chaos run.
type chaosReport struct {
	Schema           string            `json:"schema"`
	Seed             int64             `json:"seed"`
	SkylineOK        bool              `json:"skyline_ok"`
	Skyline          []int             `json:"skyline"`
	Oracle           []int             `json:"oracle"`
	FaultsInjected   map[string]uint64 `json:"faults_injected"`
	JournalTorn      bool              `json:"journal_torn"`
	RecoveredRecords int               `json:"recovered_records"`
	DroppedRecords   int               `json:"dropped_records"`
	ReplayedAnswers  int               `json:"replayed_answers"`
	ReaskedPairs     int               `json:"reasked_pairs"`
	LiveQuestions    int               `json:"live_questions"`
	ServerQuestions  int               `json:"server_questions"`
	Violations       []string          `json:"violations"`
}

// errChaosAbort is the sentinel the simulated requester crash panics with.
var errChaosAbort = errors.New("chaos: injected requester crash")

// chaosAbortPlatform crashes the requester after maxRounds crowd rounds,
// mid-session, the way a killed process would.
type chaosAbortPlatform struct {
	inner     crowd.Platform
	rounds    int
	maxRounds int
}

func (a *chaosAbortPlatform) Ask(reqs []crowd.Request) []crowd.Answer {
	if len(reqs) == 0 {
		return a.inner.Ask(reqs)
	}
	a.rounds++
	if a.rounds > a.maxRounds {
		panic(errChaosAbort)
	}
	return a.inner.Ask(reqs)
}
func (a *chaosAbortPlatform) Stats() *crowd.Stats { return a.inner.Stats() }

// chaosAskRecorder remembers every question that reached the live
// platform — every question that cost money.
type chaosAskRecorder struct {
	inner crowd.Platform
	mu    sync.Mutex
	asked []crowd.Question
}

func (r *chaosAskRecorder) Ask(reqs []crowd.Request) []crowd.Answer {
	r.mu.Lock()
	for _, q := range reqs {
		r.asked = append(r.asked, q.Q)
	}
	r.mu.Unlock()
	return r.inner.Ask(reqs)
}
func (r *chaosAskRecorder) Stats() *crowd.Stats { return r.inner.Stats() }

// runChaos executes the chaos session and returns the process exit code.
func runChaos(seed int64, dir string, out io.Writer) int {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		return 1
	}
	rep, err := chaosSession(seed, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		return 1
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		return 1
	}
	fmt.Fprintln(out, string(enc))
	if len(rep.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "chaos: %d invariant violation(s); artifacts in %s\n",
			len(rep.Violations), dir)
		return 1
	}
	fmt.Fprintf(os.Stderr, "chaos: invariants hold (seed %d, %d faults injected, %d journal records recovered)\n",
		seed, totalFaults(rep.FaultsInjected), rep.RecoveredRecords)
	return 0
}

func totalFaults(m map[string]uint64) uint64 {
	var n uint64
	for _, c := range m {
		n += c
	}
	return n
}

// chaosSession drives the crash-and-resume scenario end to end.
func chaosSession(seed int64, dir string) (*chaosReport, error) {
	// The session context is created before anything that can fail, so
	// every return path — including early setup errors — runs its cancel.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	d := dataset.Toy()
	plan := faultinject.NewPlan(seed)
	reg := telemetry.NewRegistry()
	plan.InstrumentMetrics(reg)
	recoveredCounter := reg.NewCounter("journal_recovered_records_total",
		"Journal records salvaged from the intact prefix after an unclean shutdown.")

	// Server-side trace is a failure artifact: it shows what the
	// marketplace was doing when an invariant broke.
	traceFile, err := os.Create(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		return nil, err
	}
	defer traceFile.Close()
	tracer := telemetry.NewJSONL(traceFile)

	srv := crowdserve.NewServer()
	srv.SetLease(250 * time.Millisecond)
	srv.SetTracer(tracer)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	workersDone := make(chan struct{})
	go func() {
		defer close(workersDone)
		crowdserve.SimulateWorkers(ctx, ts.URL, crowdserve.WorkerConfig{
			Count:        3,
			Truth:        crowd.DatasetTruth{Data: d},
			Reliability:  1,
			PollInterval: time.Millisecond,
			Seed:         seed + 1,
			Faults: &faultinject.WorkerFaults{
				Plan:       plan,
				PNoShow:    0.10,
				PDuplicate: 0.10,
				PStale:     0.05,
				StaleDelay: 400 * time.Millisecond,
			},
		})
	}()

	// A registry accepts each family once, so only the first client gets
	// instrumented; the chaos verdict reads fault counts from the plan,
	// not the registry, so nothing is lost.
	instrumented := false
	newClient := func() *crowdserve.Client {
		c := crowdserve.NewClient(ts.URL)
		c.HTTPClient = &http.Client{Transport: &faultinject.Transport{
			Plan: plan,
			Config: faultinject.TransportConfig{
				PResetBefore: 0.05,
				PResetAfter:  0.05,
				P503:         0.05,
				PTruncate:    0.05,
				PLatency:     0.10,
				MaxLatency:   2 * time.Millisecond,
			},
		}}
		c.PollInterval = 2 * time.Millisecond
		c.RetryBase = time.Millisecond
		c.RetryMax = 50 * time.Millisecond
		c.MaxAttempts = 12
		if !instrumented {
			instrumented = true
			c.InstrumentMetrics(reg)
		}
		return c
	}

	// Session 1: journal through a TornWriter and crash after three crowd
	// rounds — the tear lands mid-record, as a real crash between write
	// and fsync would leave it.
	journalPath := filepath.Join(dir, "journal.jsonl")
	var torn bytes.Buffer
	tw := &faultinject.TornWriter{W: &torn, Cutoff: 300, Plan: plan}
	p1, err := journal.NewPlatform(newClient(), nil, journal.NewWriter(tw))
	if err != nil {
		return nil, err
	}
	if err := func() (rerr error) {
		defer func() {
			if r := recover(); r != nil {
				if r != errChaosAbort { //nolint:errorlint // sentinel identity, not a wrapped chain
					panic(r)
				}
				return
			}
			rerr = errors.New("session 1 completed; the injected crash never fired")
		}()
		core.CrowdSky(d, &chaosAbortPlatform{inner: p1, maxRounds: 3}, core.AllPruning())
		return nil
	}(); err != nil {
		return nil, err
	}
	if err := os.WriteFile(journalPath, torn.Bytes(), 0o644); err != nil {
		return nil, err
	}

	rep := &chaosReport{
		Schema:      "crowdsky-chaos/1",
		Seed:        seed,
		JournalTorn: tw.Torn(),
	}

	// Recovery: salvage the intact prefix, exactly as `crowdsky -journal`
	// does after an unclean shutdown.
	recovered, st, err := journal.Recover(bytes.NewReader(torn.Bytes()))
	if err != nil {
		return nil, err
	}
	recoveredCounter.Add(uint64(len(recovered)))
	rep.RecoveredRecords = len(recovered)
	rep.DroppedRecords = st.Dropped
	if !tw.Torn() {
		rep.Violations = append(rep.Violations,
			"journal was never torn: the crash scenario did not exercise recovery")
	}

	// Session 2: resume from the recovered prefix, recording every live
	// question so re-purchases are provable.
	rec := &chaosAskRecorder{inner: newClient()}
	var log2 bytes.Buffer
	p2, err := journal.NewPlatform(rec, recovered, journal.NewWriter(&log2))
	if err != nil {
		return nil, err
	}
	res := core.CrowdSky(d, p2, core.AllPruning())
	cancel()
	<-workersDone

	rep.Skyline = res.Skyline
	rep.Oracle = skyline.OracleSkyline(d)
	rep.SkylineOK = metrics.SameSet(rep.Skyline, rep.Oracle)
	rep.ReplayedAnswers = p2.Replayed()
	rep.LiveQuestions = len(rec.asked)
	if !rep.SkylineOK {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"skyline %v differs from oracle %v", rep.Skyline, rep.Oracle))
	}
	if rep.ReplayedAnswers != len(recovered) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"replayed %d answers, want every recovered record (%d)", rep.ReplayedAnswers, len(recovered)))
	}

	// No paid pair asked twice: nothing the journal preserved may appear
	// among session 2's live questions, in either orientation.
	paid := make(map[crowd.Question]bool, 2*len(recovered))
	for _, e := range recovered {
		paid[crowd.Question{A: e.A, B: e.B, Attr: e.Attr}] = true
		paid[crowd.Question{A: e.B, B: e.A, Attr: e.Attr}] = true
	}
	for _, q := range rec.asked {
		if paid[q] {
			rep.ReaskedPairs++
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"recovered pair (%d,%d,attr=%d) was purchased again", q.A, q.B, q.Attr))
		}
	}

	rep.FaultsInjected = make(map[string]uint64)
	for k, n := range plan.Counts() {
		rep.FaultsInjected[string(k)] = n
	}
	if len(rep.FaultsInjected) == 0 {
		rep.Violations = append(rep.Violations,
			"zero faults injected: the chaos run proved nothing")
	}

	if stats, err := fetchChaosStats(ts.URL); err == nil {
		rep.ServerQuestions = stats.Questions
	}

	// Leave both journals behind as artifacts: the torn original and the
	// clean resumed one.
	if err := os.WriteFile(filepath.Join(dir, "journal-resumed.jsonl"), log2.Bytes(), 0o644); err != nil {
		return nil, err
	}
	// Surface trace-write failures before the verdict so a failing run's
	// artifact is known-complete.
	if err := tracer.Err(); err != nil {
		return nil, fmt.Errorf("trace writes failed: %w", err)
	}
	return rep, nil
}

type chaosStats struct {
	Rounds    int `json:"rounds"`
	Questions int `json:"questions"`
}

func fetchChaosStats(baseURL string) (chaosStats, error) {
	resp, err := http.Get(baseURL + "/api/stats")
	if err != nil {
		return chaosStats{}, err
	}
	defer resp.Body.Close()
	var st chaosStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return chaosStats{}, err
	}
	return st, nil
}
