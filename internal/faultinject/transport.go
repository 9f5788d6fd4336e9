package faultinject

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// ErrInjected is the sentinel wrapped by every transport-level fault
// error, so callers (and tests) can tell an injected failure from a real
// one with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// TransportConfig sets the per-request probability of each transport
// fault. Probabilities are evaluated independently in the order reset
// before → 503 → latency → forward → reset after → truncate; at most one
// terminal fault fires per request.
type TransportConfig struct {
	// PResetBefore drops the request before it reaches the server.
	PResetBefore float64
	// PResetAfter forwards the request, then drops the response — the
	// server processed work the client never learns about.
	PResetAfter float64
	// P503 short-circuits the request with a synthesized 503 response.
	P503 float64
	// PTruncate forwards the request but returns only a prefix of the
	// response body.
	PTruncate float64
	// PLatency delays the request by up to MaxLatency before forwarding.
	PLatency float64
	// MaxLatency bounds the injected delay; defaults to 5ms.
	MaxLatency time.Duration
}

// Transport wraps an http.RoundTripper with seeded fault injection. It is
// safe for concurrent use; the fault schedule is drawn from the plan's
// "transport" RNG stream under a mutex, so a fixed seed reproduces the
// same fault sequence for the same request order.
type Transport struct {
	// Base performs real round trips; defaults to http.DefaultTransport.
	Base http.RoundTripper
	// Plan supplies the RNG stream and books injected faults.
	Plan *Plan
	// Config sets the fault probabilities.
	Config TransportConfig

	mu  sync.Mutex
	rng *rand.Rand // skylint:guardedby mu
}

func (t *Transport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

// draw evaluates one probability on the shared schedule stream.
func (t *Transport) draw(p float64) bool {
	if p <= 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rng == nil {
		t.rng = t.Plan.Rand("transport")
	}
	return t.rng.Float64() < p
}

func (t *Transport) latency() time.Duration {
	max := t.Config.MaxLatency
	if max <= 0 {
		max = 5 * time.Millisecond
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.rng.Float64() * float64(max))
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.draw(t.Config.PResetBefore) {
		t.Plan.Record(KindConnResetBefore)
		return nil, &injectedError{kind: KindConnResetBefore}
	}
	if t.draw(t.Config.P503) {
		t.Plan.Record(KindHTTP503)
		return synthesized503(req), nil
	}
	if t.draw(t.Config.PLatency) {
		t.Plan.Record(KindLatency)
		timer := time.NewTimer(t.latency())
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}
	resp, err := t.base().RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if t.draw(t.Config.PResetAfter) {
		t.Plan.Record(KindConnResetAfter)
		drain(resp.Body)
		return nil, &injectedError{kind: KindConnResetAfter}
	}
	if t.draw(t.Config.PTruncate) {
		t.Plan.Record(KindTruncateBody)
		return truncateBody(resp), nil
	}
	return resp, nil
}

// injectedError is a transport fault error; it unwraps to ErrInjected.
type injectedError struct{ kind Kind }

func (e *injectedError) Error() string {
	return "faultinject: " + string(e.kind)
}
func (e *injectedError) Unwrap() error { return ErrInjected }

// synthesized503 fabricates a 503 without touching the server, as a load
// balancer or overloaded proxy would.
func synthesized503(req *http.Request) *http.Response {
	body := "injected 503\n"
	return &http.Response{
		Status:        "503 Service Unavailable",
		StatusCode:    http.StatusServiceUnavailable,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"text/plain"}},
		Body:          io.NopCloser(bytes.NewReader([]byte(body))),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// truncateBody replaces the response body with its first half, so the
// client's JSON decode fails exactly as it would on a torn connection.
func truncateBody(resp *http.Response) *http.Response {
	data, err := io.ReadAll(resp.Body)
	drain(resp.Body)
	if err != nil || len(data) == 0 {
		// The body was already unreadable; pass the failure through.
		resp.Body = io.NopCloser(bytes.NewReader(nil))
		resp.ContentLength = 0
		return resp
	}
	cut := len(data) / 2
	resp.Body = io.NopCloser(bytes.NewReader(data[:cut]))
	resp.ContentLength = int64(cut)
	resp.Header.Set("Content-Length", strconv.Itoa(cut))
	return resp
}

func drain(rc io.ReadCloser) {
	_, _ = io.Copy(io.Discard, rc) // skylint:ignore errdrop best-effort drain of a body we are discarding anyway
	_ = rc.Close()                 // skylint:ignore errdrop read side already consumed; nothing to recover
}
