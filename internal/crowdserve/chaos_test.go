package crowdserve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdsky/internal/core"
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/faultinject"
	"crowdsky/internal/journal"
	"crowdsky/internal/metrics"
	"crowdsky/internal/skyline"
	"crowdsky/internal/telemetry"
)

// Chaos suite: full skyline sessions under injected faults. Whatever the
// network, the workers, or a crash does, two invariants must hold — the
// crowdsourced skyline equals the oracle skyline, and no answered
// (paid-for) pair is ever purchased twice.

type statsResp struct {
	Rounds    int `json:"rounds"`
	Questions int `json:"questions"`
	Judgments int `json:"judgments"`
}

func serverStats(t *testing.T, baseURL string) statsResp {
	t.Helper()
	resp, err := http.Get(baseURL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	return decode[statsResp](t, resp)
}

// TestChaosTransportFaults runs the full toy session through a transport
// that resets connections (before and after the server acts), serves
// 503s, injects latency, and truncates bodies. The client's retries plus
// idempotency keys must absorb all of it: oracle-identical skyline and
// not one duplicated question on the server's bill.
func TestChaosTransportFaults(t *testing.T) {
	d := dataset.Toy()
	_, ts := newTestServer(t)

	ctx, cancel := context.WithCancel(context.Background())
	workersDone := make(chan struct{})
	go func() {
		defer close(workersDone)
		SimulateWorkers(ctx, ts.URL, WorkerConfig{
			Count:        3,
			Truth:        crowd.DatasetTruth{Data: d},
			Reliability:  1,
			PollInterval: time.Millisecond,
			Seed:         1,
		})
	}()

	plan := faultinject.NewPlan(1234)
	client := NewClient(ts.URL)
	client.HTTPClient = &http.Client{Transport: &faultinject.Transport{
		Plan: plan,
		Config: faultinject.TransportConfig{
			PResetBefore: 0.08,
			PResetAfter:  0.08,
			P503:         0.08,
			PTruncate:    0.08,
			PLatency:     0.15,
			MaxLatency:   2 * time.Millisecond,
		},
	}}
	client.PollInterval = 2 * time.Millisecond
	client.RetryBase = time.Millisecond
	client.RetryMax = 20 * time.Millisecond
	client.MaxAttempts = 10
	reg := telemetry.NewRegistry()
	client.InstrumentMetrics(reg)
	plan.InstrumentMetrics(reg)

	res := core.Run(d, client, slOptions())
	cancel()
	<-workersDone

	if want := skyline.OracleSkyline(d); !metrics.SameSet(res.Skyline, want) {
		t.Errorf("skyline under transport faults = %v, want %v", res.Skyline, want)
	}
	if res.Questions != 12 {
		t.Errorf("client questions = %d, want 12", res.Questions)
	}
	// The marketplace's bill must match the client's: a broken idempotency
	// path would leave duplicate rounds (and their questions) behind.
	st := serverStats(t, ts.URL)
	if st.Questions != res.Questions || st.Rounds != res.Rounds {
		t.Errorf("server billed %d questions in %d rounds; client sent %d in %d — duplicated work",
			st.Questions, st.Rounds, res.Questions, res.Rounds)
	}
	if plan.Total() == 0 {
		t.Error("chaos run injected zero faults; the exercise proved nothing")
	}
	t.Logf("faults injected: %d across %v", plan.Total(), plan.Kinds())
}

// TestChaosWorkerFaults runs the session against a misbehaving fleet —
// no-shows, duplicate submissions, stale post-lease answers — on a short
// lease. Requeues and rejections must keep the result exact.
func TestChaosWorkerFaults(t *testing.T) {
	d := dataset.Toy()
	srv, ts := newTestServer(t)
	srv.SetLease(60 * time.Millisecond)

	plan := faultinject.NewPlan(99)
	ctx, cancel := context.WithCancel(context.Background())
	workersDone := make(chan struct{})
	go func() {
		defer close(workersDone)
		SimulateWorkers(ctx, ts.URL, WorkerConfig{
			Count:        4,
			Truth:        crowd.DatasetTruth{Data: d},
			Reliability:  1,
			PollInterval: time.Millisecond,
			Seed:         7,
			Faults: &faultinject.WorkerFaults{
				Plan:       plan,
				PNoShow:    0.2,
				PDuplicate: 0.2,
				PStale:     0.15,
				StaleDelay: 150 * time.Millisecond,
			},
		})
	}()

	client := NewClient(ts.URL)
	client.PollInterval = 2 * time.Millisecond
	res := core.Run(d, client, slOptions())
	cancel()
	<-workersDone

	if want := skyline.OracleSkyline(d); !metrics.SameSet(res.Skyline, want) {
		t.Errorf("skyline under worker faults = %v, want %v", res.Skyline, want)
	}
	st := serverStats(t, ts.URL)
	if st.Questions != 12 {
		t.Errorf("server questions = %d, want 12", st.Questions)
	}
	if plan.Total() == 0 {
		t.Error("no worker faults injected; raise the probabilities or the seed is degenerate")
	}
	t.Logf("worker faults injected: %d across %v", plan.Total(), plan.Kinds())
}

// TestIdempotentRoundReplay pins the server-side contract directly: the
// same Idempotency-Key posted twice yields the same round and books no
// second round, and the replay survives a snapshot/restore cycle.
func TestIdempotentRoundReplay(t *testing.T) {
	srv, ts := newTestServer(t)
	post := func(key string) int64 {
		t.Helper()
		body := bytes.NewReader([]byte(`{"questions":[{"a":0,"b":1,"attr":0,"workers":1}]}`))
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/rounds", body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("status = %s", resp.Status)
		}
		return decode[struct {
			RoundID int64 `json:"round_id"`
		}](t, resp).RoundID
	}

	first := post("k-1")
	if again := post("k-1"); again != first {
		t.Errorf("replayed key returned round %d, want %d", again, first)
	}
	if other := post("k-2"); other == first {
		t.Error("distinct keys shared a round")
	}
	if st := serverStats(t, ts.URL); st.Rounds != 2 {
		t.Errorf("rounds = %d, want 2 (one per distinct key)", st.Rounds)
	}
	var sb strings.Builder
	if _, err := srv.Metrics().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "crowdserve_idempotent_replays_total 1") {
		t.Errorf("replay metric missing or wrong:\n%s", sb.String())
	}

	// The cache must survive a restart: restore into a fresh server and
	// replay the old key there.
	var snap bytes.Buffer
	if err := srv.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer()
	if err := srv2.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	req, err := http.NewRequest(http.MethodPost, ts2.URL+"/api/rounds",
		bytes.NewReader([]byte(`{"questions":[{"a":0,"b":1,"attr":0,"workers":1}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", "k-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := decode[struct {
		RoundID int64 `json:"round_id"`
	}](t, resp).RoundID; got != first {
		t.Errorf("post-restart replay returned round %d, want %d", got, first)
	}
}

// TestIdempotencyKeyRejected: an Idempotency-Key outside the token
// charset and one over the 200-byte cap are each answered 400, and
// neither posts a round or parks a key in the replay cache.
func TestIdempotencyKeyRejected(t *testing.T) {
	srv, ts := newTestServer(t)
	for name, key := range map[string]string{
		"malformed": "key with spaces;and=punctuation",
		"201 bytes": strings.Repeat("k", 201),
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/rounds",
			strings.NewReader(`{"questions":[{"a":0,"b":1,"attr":0,"workers":1}]}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s key: status = %s, want 400", name, resp.Status)
		}
	}
	if st := serverStats(t, ts.URL); st.Rounds != 0 || st.Questions != 0 {
		t.Errorf("rejected submissions posted work: %+v", st)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.idem) != 0 {
		t.Errorf("replay cache holds %d keys after only rejected submissions", len(srv.idem))
	}
}

// TestClientRetriesTransientFailure pins the client-side retry contract:
// a POST whose first attempt dies on the wire is retried with the same
// idempotency key, so the server processes exactly one round.
func TestClientRetriesTransientFailure(t *testing.T) {
	srv, ts := newTestServer(t)
	plan := faultinject.NewPlan(5)
	tr := &faultinject.Transport{Plan: plan}

	// Deterministic single failure: fail exactly the first POST attempt
	// after the server has acted (the lost-response case), then behave.
	var posts int
	var mu sync.Mutex
	client := NewClient(ts.URL)
	client.HTTPClient = &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/api/rounds") {
			mu.Lock()
			posts++
			fail := posts == 1
			mu.Unlock()
			if fail {
				tr.Config = faultinject.TransportConfig{PResetAfter: 1}
			} else {
				tr.Config = faultinject.TransportConfig{}
			}
		} else {
			tr.Config = faultinject.TransportConfig{}
		}
		return tr.RoundTrip(req)
	})}
	client.RetryBase = time.Millisecond
	client.PollInterval = 2 * time.Millisecond
	reg := telemetry.NewRegistry()
	client.InstrumentMetrics(reg)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workersDone := make(chan struct{})
	go func() {
		defer close(workersDone)
		SimulateWorkers(ctx, ts.URL, WorkerConfig{
			Count: 1, Truth: staticTruth{}, Reliability: 1,
			PollInterval: time.Millisecond, Seed: 3,
		})
	}()

	answers := client.Ask([]crowd.Request{{Q: crowd.Question{A: 0, B: 1}, Workers: 1}})
	cancel()
	<-workersDone

	if len(answers) != 1 {
		t.Fatalf("answers = %d", len(answers))
	}
	if plan.Counts()[faultinject.KindConnResetAfter] != 1 {
		t.Fatalf("expected exactly one injected reset-after, got %v", plan.Counts())
	}
	// Both attempts reached the server; the idempotency key collapsed them
	// into one round.
	st := serverStats(t, ts.URL)
	if st.Rounds != 1 || st.Questions != 1 {
		t.Errorf("server saw %d rounds / %d questions, want 1/1 — retry double-charged", st.Rounds, st.Questions)
	}
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `crowdserve_client_retries_total{cause="conn"} 1`) {
		t.Errorf("conn retry not counted:\n%s", sb.String())
	}
	var msb strings.Builder
	if _, err := srv.Metrics().WriteTo(&msb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msb.String(), "crowdserve_idempotent_replays_total 1") {
		t.Errorf("server did not replay the retried submission:\n%s", msb.String())
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// staticTruth always prefers the first tuple; enough for one question.
type staticTruth struct{}

func (staticTruth) Answer(crowd.Question) crowd.Preference { return crowd.First }
func (staticTruth) Value(i, j int) float64                 { return float64(i) }

// flakyHost serves a marketplace whose process can be "killed" and
// replaced mid-round: after restartAfter POSTed rounds (never, when it is
// 0) it snapshots the current server, builds a fresh one from the snapshot
// (as a restarted daemon would from its state file), and swaps it in under
// the same URL.
type flakyHost struct {
	t            *testing.T
	restartAfter int
	lease        time.Duration

	mu        sync.RWMutex
	srv       *Server
	handler   http.Handler
	posts     int
	restarted bool
}

func newFlakyHost(t *testing.T, srv *Server, restartAfter int, lease time.Duration) *flakyHost {
	return &flakyHost{t: t, srv: srv, handler: srv.Handler(), restartAfter: restartAfter, lease: lease}
}

func (f *flakyHost) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.RLock()
	h := f.handler
	f.mu.RUnlock()
	h.ServeHTTP(w, r)
	if r.Method == http.MethodPost && r.URL.Path == "/api/rounds" {
		f.maybeRestart()
	}
}

func (f *flakyHost) maybeRestart() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.posts++
	if f.restarted || f.restartAfter == 0 || f.posts < f.restartAfter {
		return
	}
	f.restarted = true
	var snap bytes.Buffer
	if err := f.srv.Snapshot(&snap); err != nil {
		f.t.Errorf("snapshot during restart: %v", err)
		return
	}
	next := NewServer()
	next.SetLease(f.lease)
	if err := next.Restore(&snap); err != nil {
		f.t.Errorf("restore during restart: %v", err)
		return
	}
	f.srv = next
	f.handler = next.Handler()
}

// errAbort is the sentinel a simulated requester crash panics with.
var errAbort = errors.New("chaos: injected requester crash")

// abortPlatform crashes the requester after maxRounds crowd rounds.
type abortPlatform struct {
	inner     crowd.Platform
	rounds    int
	maxRounds int
}

func (a *abortPlatform) Ask(reqs []crowd.Request) []crowd.Answer {
	if len(reqs) == 0 {
		return a.inner.Ask(reqs)
	}
	a.rounds++
	if a.rounds > a.maxRounds {
		panic(errAbort)
	}
	return a.inner.Ask(reqs)
}
func (a *abortPlatform) Stats() *crowd.Stats { return a.inner.Stats() }

// askRecorder remembers every question that reached the live platform —
// i.e. every question that cost money.
type askRecorder struct {
	inner crowd.Platform
	mu    sync.Mutex
	asked []crowd.Question
}

func (r *askRecorder) Ask(reqs []crowd.Request) []crowd.Answer {
	r.mu.Lock()
	for _, q := range reqs {
		r.asked = append(r.asked, q.Q)
	}
	r.mu.Unlock()
	return r.inner.Ask(reqs)
}
func (r *askRecorder) Stats() *crowd.Stats { return r.inner.Stats() }

// TestChaosKillRestartMidRound is the full resilience story: a journaled
// requester session crashes mid-run with a torn journal write, and the
// resumed session must still produce the oracle skyline without
// re-purchasing any answer that survived in the journal. Each case adds
// its own faults on top: a marketplace daemon killed and restarted from
// its snapshot mid-round, or a lossy network plus a misbehaving worker
// fleet.
func TestChaosKillRestartMidRound(t *testing.T) {
	for _, tc := range []killRestartCase{
		{
			name:  "daemon-restart",
			seed:  2026,
			lease: 60 * time.Millisecond,
			// Restart the daemon right after the resumed session posts its
			// first live round (session 1 posts rounds 1..3).
			restartAfter: 4,
			workerSeed:   13,
		},
		{
			name:       "network-and-worker-faults",
			seed:       1234,
			lease:      250 * time.Millisecond,
			workerSeed: 1235,
			transport: &faultinject.TransportConfig{
				PResetBefore: 0.05,
				PResetAfter:  0.05,
				P503:         0.05,
				PTruncate:    0.05,
				PLatency:     0.10,
				MaxLatency:   2 * time.Millisecond,
			},
			workerFaults: &faultinject.WorkerFaults{
				PNoShow:    0.10,
				PDuplicate: 0.10,
				PStale:     0.05,
				StaleDelay: 400 * time.Millisecond,
			},
			retryMax:    50 * time.Millisecond,
			maxAttempts: 12,
		},
	} {
		t.Run(tc.name, func(t *testing.T) { runKillRestart(t, tc) })
	}
}

// killRestartCase configures one crash-and-resume session. Zero fields
// leave the corresponding fault out (or the client default in place).
type killRestartCase struct {
	name         string
	seed         int64 // fault plan seed
	lease        time.Duration
	restartAfter int // restart the daemon after this many posted rounds; 0 never does
	workerSeed   int64
	transport    *faultinject.TransportConfig
	workerFaults *faultinject.WorkerFaults // Plan is filled in per run
	retryMax     time.Duration
	maxAttempts  int
}

var (
	transportKinds = []faultinject.Kind{faultinject.KindConnResetBefore, faultinject.KindConnResetAfter,
		faultinject.KindHTTP503, faultinject.KindLatency, faultinject.KindTruncateBody}
	workerKinds = []faultinject.Kind{faultinject.KindWorkerNoShow, faultinject.KindWorkerDuplicate,
		faultinject.KindWorkerStale}
)

// fired reports whether counts holds at least one fault of kinds.
func fired(counts map[faultinject.Kind]uint64, kinds []faultinject.Kind) bool {
	for _, k := range kinds {
		if counts[k] > 0 {
			return true
		}
	}
	return false
}

func runKillRestart(t *testing.T, tc killRestartCase) {
	d := dataset.Toy()
	plan := faultinject.NewPlan(tc.seed)

	srv := NewServer()
	srv.SetLease(tc.lease)
	host := newFlakyHost(t, srv, tc.restartAfter, tc.lease)
	ts := httptest.NewServer(host)
	defer ts.Close()

	var wf *faultinject.WorkerFaults
	if tc.workerFaults != nil {
		f := *tc.workerFaults
		f.Plan = plan
		wf = &f
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workersDone := make(chan struct{})
	go func() {
		defer close(workersDone)
		SimulateWorkers(ctx, ts.URL, WorkerConfig{
			Count:        3,
			Truth:        crowd.DatasetTruth{Data: d},
			Reliability:  1,
			PollInterval: time.Millisecond,
			Seed:         tc.workerSeed,
			Faults:       wf,
		})
	}()

	newClient := func() *Client {
		c := NewClient(ts.URL)
		if tc.transport != nil {
			c.HTTPClient = &http.Client{Transport: &faultinject.Transport{Plan: plan, Config: *tc.transport}}
		}
		c.PollInterval = 2 * time.Millisecond
		c.RetryBase = time.Millisecond
		c.RetryMax = tc.retryMax
		c.MaxAttempts = tc.maxAttempts
		return c
	}

	// Session 1: journal through a TornWriter (the crash will tear the
	// tail), crash the requester after 3 rounds.
	var torn bytes.Buffer
	tw := &faultinject.TornWriter{W: &torn, Cutoff: 300, Plan: plan}
	p1, err := journal.NewPlatform(newClient(), nil, journal.NewWriter(tw))
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if r := recover(); r != nil && r != errAbort { //nolint:errorlint // sentinel identity, not a wrapped chain
				panic(r)
			}
		}()
		core.Run(d, &abortPlatform{inner: p1, maxRounds: 3}, core.AllPruning())
		t.Fatal("session 1 finished; the abort platform never fired")
	}()
	if !tw.Torn() {
		t.Fatal("journal was not torn; raise session-1 rounds or lower the cutoff")
	}

	// Recovery: salvage the intact journal prefix, as `crowdsky -resume`
	// does after an unclean shutdown.
	recovered, st, err := journal.Recover(bytes.NewReader(torn.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) == 0 || st.Dropped == 0 {
		t.Fatalf("tear should drop a strict suffix: %d recovered, %+v", len(recovered), st)
	}
	t.Logf("recovered %d journal records (%d bytes intact, %d lines dropped)", len(recovered), st.IntactBytes, st.Dropped)

	// Session 2: resume from the recovered prefix. The live platform is
	// wrapped in a recorder so we can prove no recovered pair is re-asked.
	rec := &askRecorder{inner: newClient()}
	var log2 bytes.Buffer
	p2, err := journal.NewPlatform(rec, recovered, journal.NewWriter(&log2))
	if err != nil {
		t.Fatal(err)
	}
	res := core.Run(d, p2, core.AllPruning())
	cancel()
	<-workersDone

	if want := skyline.OracleSkyline(d); !metrics.SameSet(res.Skyline, want) {
		t.Errorf("resumed skyline = %v, want %v", res.Skyline, want)
	}
	if p2.Replayed() != len(recovered) {
		t.Errorf("replayed %d answers, want every recovered record (%d)", p2.Replayed(), len(recovered))
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
			t.Errorf("recovered pair (%d,%d,attr=%d) was purchased again", q.A, q.B, q.Attr)
		}
	}
	if host.restarted != (tc.restartAfter > 0) {
		t.Errorf("daemon restarted = %v, want %v", host.restarted, tc.restartAfter > 0)
	}
	// The resumed session journaled its live answers with checksums; its
	// own journal must read back clean.
	if entries, err := journal.Read(bytes.NewReader(log2.Bytes())); err != nil || len(entries) != len(rec.asked) {
		t.Errorf("session-2 journal: %d entries, %v (asked %d live)", len(entries), err, len(rec.asked))
	}

	counts := plan.Counts()
	t.Logf("faults injected: %v", counts)
	if tc.transport != nil && !fired(counts, transportKinds) {
		t.Error("no transport fault fired; the network was never lossy")
	}
	if tc.workerFaults != nil && !fired(counts, workerKinds) {
		t.Error("no worker fault fired; the fleet never misbehaved")
	}
}
