package crowdserve

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"time"

	"crowdsky/internal/crowd"
	"crowdsky/internal/telemetry"
)

// Retry causes, the label values of crowdserve_client_retries_total.
const (
	// retryCausePoll is a round-status re-poll: the round simply was not
	// done yet. Each one is a backoff interval spent waiting on the crowd.
	retryCausePoll = "poll"
	// retryCauseConn is a transport-level failure (connection reset,
	// timeout) on a request that is being retried.
	retryCauseConn = "conn"
	// retryCause5xx is a retryable server status (5xx or 429).
	retryCause5xx = "http_5xx"
	// retryCauseDecode is a response that arrived but would not decode —
	// typically a truncated body on a torn connection.
	retryCauseDecode = "decode"
)

// Client implements crowd.Platform against a crowdserve marketplace: each
// Ask posts one round and polls until every judgment is in, so the
// crowd-enabled skyline algorithms run unchanged over HTTP.
//
// The client is resilient by default: every request gets a per-attempt
// timeout and is retried with capped exponential backoff plus jitter on
// transport errors, 5xx/429 statuses, and undecodable responses. Round
// submissions carry an Idempotency-Key header, so a retry of a POST whose
// response was lost lands on the same server-side round — the marketplace
// never charges twice for one logical round.
//
// A run's context reaches the client through AskCtx; Ask waits under
// context.Background(). Since crowd.Platform has no error channel, a
// cancelled wait or a request that exhausts its retries panics; callers
// that need graceful cancellation recover at the run boundary.
type Client struct {
	// BaseURL is the marketplace root, e.g. "http://localhost:8800".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// PollInterval is the initial delay between round-status checks;
	// defaults to 250ms. Consecutive not-done polls back off
	// exponentially (with jitter) up to MaxPollInterval.
	PollInterval time.Duration
	// MaxPollInterval caps the poll backoff; defaults to 16× PollInterval.
	MaxPollInterval time.Duration
	// RequestTimeout bounds each individual HTTP attempt; defaults to 30s.
	RequestTimeout time.Duration
	// RetryBase is the first retry backoff; defaults to 50ms. Attempt n
	// waits RetryBase<<n, capped at RetryMax, jittered.
	RetryBase time.Duration
	// RetryMax caps the retry backoff; defaults to 2s.
	RetryMax time.Duration
	// MaxAttempts bounds attempts per request (first try included);
	// defaults to 6.
	MaxAttempts int

	stats crowd.Stats
	// retries counts retried work by cause; set by InstrumentMetrics.
	retries *telemetry.CounterVec
	// idemSession is the random per-client prefix of idempotency keys,
	// minted lazily on the first round submission.
	idemSession string
	// idemSeq numbers rounds within the session; all retries of one round
	// share one key, distinct rounds never do.
	idemSeq uint64
}

// NewClient returns a marketplace client for baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) pollInterval() time.Duration {
	if c.PollInterval > 0 {
		return c.PollInterval
	}
	return 250 * time.Millisecond
}

func (c *Client) maxPollInterval() time.Duration {
	if c.MaxPollInterval > 0 {
		return c.MaxPollInterval
	}
	return 16 * c.pollInterval()
}

func (c *Client) requestTimeout() time.Duration {
	if c.RequestTimeout > 0 {
		return c.RequestTimeout
	}
	return 30 * time.Second
}

func (c *Client) retryBase() time.Duration {
	if c.RetryBase > 0 {
		return c.RetryBase
	}
	return 50 * time.Millisecond
}

func (c *Client) retryMax() time.Duration {
	if c.RetryMax > 0 {
		return c.RetryMax
	}
	return 2 * time.Second
}

func (c *Client) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 6
}

// InstrumentMetrics registers the client's metric families on reg:
// crowdserve_client_retries_total counts retried work by cause — "poll"
// for round-status re-polls (crowd latency), "conn" for transport
// failures, "http_5xx" for retryable statuses, "decode" for truncated or
// garbled responses.
func (c *Client) InstrumentMetrics(reg *telemetry.Registry) {
	c.retries = reg.NewCounterVec("crowdserve_client_retries_total",
		"Client retries by cause: poll (round not done yet), conn, http_5xx, decode.", "cause")
}

func (c *Client) countRetry(cause string) {
	if c.retries != nil {
		c.retries.With(cause).Inc()
	}
}

// Ask implements crowd.Platform.
func (c *Client) Ask(reqs []crowd.Request) []crowd.Answer {
	return c.AskCtx(context.Background(), reqs)
}

// AskCtx implements crowd.ContextPlatform: ctx cancels the round (both
// in-flight HTTP requests and the backoff sleeps — a cancelled wait
// panics, since crowd.Platform has no error channel), and the active
// trace span in ctx is propagated to the server as a traceparent header
// so the marketplace's lease/judgment spans join the run's trace.
func (c *Client) AskCtx(ctx context.Context, reqs []crowd.Request) []crowd.Answer {
	if len(reqs) == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	c.stats.Record(reqs)

	qs := make([]QuestionJSON, len(reqs))
	for i, r := range reqs {
		qs[i] = QuestionJSON{A: r.Q.A, B: r.Q.B, Attr: r.Q.Attr, Workers: r.Workers}
	}
	sctx, submit := telemetry.StartSpan(ctx, nil, "round_submit")
	roundID, err := c.postRound(sctx, qs)
	submit.End()
	if err != nil {
		panic(fmt.Sprintf("crowdserve: posting round: %v", err))
	}

	wctx, wait := telemetry.StartSpan(ctx, nil, "round_wait")
	wait.SetAttr("round_id", fmt.Sprintf("%d", roundID))
	polls := 0
	interval := c.pollInterval()
	defer wait.End()
	for {
		done, answers, err := c.getRound(wctx, roundID)
		if err != nil {
			panic(fmt.Sprintf("crowdserve: polling round %d: %v", roundID, err))
		}
		if done {
			wait.SetAttr("polls", fmt.Sprintf("%d", polls))
			out, err := matchAnswers(reqs, answers)
			if err != nil {
				panic(fmt.Sprintf("crowdserve: round %d: %v", roundID, err))
			}
			return out
		}
		// Sleep one jittered backoff interval, but wake immediately on
		// cancellation: a cancelled run must not outlive its context by a
		// poll cycle. The interval doubles per not-done poll up to
		// MaxPollInterval, so a slow crowd is not hammered with status
		// checks while a fast one is noticed promptly.
		if err := sleepCtx(ctx, jitter(interval)); err != nil {
			panic(fmt.Sprintf("crowdserve: cancelled while waiting for round %d: %v", roundID, err))
		}
		polls++
		c.countRetry(retryCausePoll)
		if interval *= 2; interval > c.maxPollInterval() {
			interval = c.maxPollInterval()
		}
	}
}

// matchAnswers maps a done round's answers onto the requests. The server
// answers in question order, so answer i must be request i's question: a
// short reply would leave zero-value answers (and re-ask the dropped
// pairs), a long or reordered one would answer questions never asked.
func matchAnswers(reqs []crowd.Request, answers []AnswerJSON) ([]crowd.Answer, error) {
	if len(answers) != len(reqs) {
		return nil, fmt.Errorf("%d answers for %d questions", len(answers), len(reqs))
	}
	out := make([]crowd.Answer, len(reqs))
	for i, a := range answers {
		q := crowd.Question{A: a.A, B: a.B, Attr: a.Attr}
		if q != reqs[i].Q {
			return nil, fmt.Errorf("answer %d is for %+v, want %+v", i, q, reqs[i].Q)
		}
		pref, err := parsePref(a.Pref)
		if err != nil {
			return nil, err
		}
		out[i] = crowd.Answer{Q: q, Pref: pref}
	}
	return out, nil
}

// Stats implements crowd.Platform.
func (c *Client) Stats() *crowd.Stats { return &c.stats }

// nextIdempotencyKey mints the key for one logical round submission. The
// session prefix is random per client, so two clients (or two runs of
// one process) never collide; the sequence number distinguishes rounds
// within the session.
func (c *Client) nextIdempotencyKey() string {
	if c.idemSession == "" {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			// crypto/rand failing means the platform's randomness source is
			// broken; there is no safe fallback for a collision-free key.
			panic(fmt.Sprintf("crowdserve: minting idempotency key: %v", err))
		}
		c.idemSession = hex.EncodeToString(b[:])
	}
	c.idemSeq++
	return fmt.Sprintf("%s-%d", c.idemSession, c.idemSeq)
}

func (c *Client) postRound(ctx context.Context, qs []QuestionJSON) (int64, error) {
	body, err := json.Marshal(map[string]any{"questions": qs})
	if err != nil {
		return 0, err
	}
	var out struct {
		RoundID int64 `json:"round_id"`
	}
	// One key across every retry of this round: if the server processed an
	// attempt whose response we lost, the retry returns the same round.
	key := c.nextIdempotencyKey()
	if err := c.doJSON(ctx, http.MethodPost, c.BaseURL+"/api/rounds", body, key, http.StatusCreated, &out); err != nil {
		return 0, err
	}
	return out.RoundID, nil
}

func (c *Client) getRound(ctx context.Context, id int64) (bool, []AnswerJSON, error) {
	var out struct {
		Done    bool         `json:"done"`
		Answers []AnswerJSON `json:"answers"`
	}
	url := fmt.Sprintf("%s/api/rounds/%d", c.BaseURL, id)
	if err := c.doJSON(ctx, http.MethodGet, url, nil, "", http.StatusOK, &out); err != nil {
		return false, nil, err
	}
	return out.Done, out.Answers, nil
}

// doJSON performs one logical JSON request with retries: transport
// errors, 5xx/429 statuses, and decode failures are retried with capped
// exponential backoff and jitter up to MaxAttempts; other unexpected
// statuses are terminal. On success the body is decoded into out.
func (c *Client) doJSON(ctx context.Context, method, url string, body []byte, idemKey string, wantStatus int, out any) error {
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts(); attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, jitter(c.backoff(attempt-1))); err != nil {
				return err
			}
		}
		err, retryable, cause := c.attemptJSON(ctx, method, url, body, idemKey, wantStatus, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable {
			return err
		}
		if attempt+1 < c.maxAttempts() {
			c.countRetry(cause)
		}
	}
	return fmt.Errorf("giving up after %d attempts: %w", c.maxAttempts(), lastErr)
}

// attemptJSON is one HTTP attempt under its own timeout. It reports
// whether the failure is worth retrying and, if so, under which cause.
func (c *Client) attemptJSON(ctx context.Context, method, url string, body []byte, idemKey string, wantStatus int, out any) (err error, retryable bool, cause string) {
	actx, cancel := context.WithTimeout(ctx, c.requestTimeout())
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, url, rd)
	if err != nil {
		return err, false, ""
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	injectTraceParent(ctx, req)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The caller's context ended; retrying would only delay the
			// cancellation the caller asked for.
			return ctx.Err(), false, ""
		}
		return err, true, retryCauseConn
	}
	defer drainClose(resp.Body)
	switch {
	case resp.StatusCode == wantStatus:
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("decoding response: %w", err), true, retryCauseDecode
		}
		return nil, false, ""
	case resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests:
		return fmt.Errorf("retryable status %s", resp.Status), true, retryCause5xx
	default:
		return fmt.Errorf("unexpected status %s", resp.Status), false, ""
	}
}

// backoff returns the un-jittered delay before retry n (0-based):
// RetryBase<<n capped at RetryMax.
func (c *Client) backoff(n int) time.Duration {
	d := c.retryBase()
	max := c.retryMax()
	for i := 0; i < n; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// jitter spreads a delay over [d/2, d], so synchronized clients do not
// retry in lockstep against a struggling server.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(mrand.Int63n(int64(half)+1))
}

// sleepCtx sleeps for d or until ctx is cancelled, whichever comes
// first, returning the context error on cancellation.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// injectTraceParent stamps the active span context from ctx onto req as a
// W3C traceparent header, so the server's spans join the caller's trace.
func injectTraceParent(ctx context.Context, req *http.Request) {
	if sc := telemetry.ActiveSpanContext(ctx); sc.Valid() {
		req.Header.Set(telemetry.TraceParentHeader, sc.TraceParent())
	}
}

// drainClose consumes the rest of a response body so the HTTP transport
// can reuse the connection. Failures here are unactionable — the response
// was already decoded (or rejected) by the caller, and the worst outcome
// is one lost keep-alive connection.
func drainClose(rc io.ReadCloser) {
	_, _ = io.Copy(io.Discard, rc) // skylint:ignore errdrop best-effort drain for connection reuse
	_ = rc.Close()                 // skylint:ignore errdrop read side already consumed; nothing to recover
}
