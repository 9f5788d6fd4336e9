package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crowdsky"
	"crowdsky/internal/crowd"
	"crowdsky/internal/crowdserve"
)

// Poll intervals of the serve workload. The defaults (250 ms client,
// 50 ms worker) are sized for human crowds and would make every round
// mostly sleep; these keep the marketplace's own work visible.
const (
	clientPoll    = 200 * time.Microsecond
	clientPollMax = 2 * time.Millisecond
	workerPoll    = 200 * time.Microsecond
)

// market is an in-process crowdserve marketplace on a loopback listener
// with one simulated worker, started for one session. The requester and
// the worker each hold one keep-alive connection, so the load never needs
// more than two. A marketplace keeps every round it has served, so one
// shared across sessions would grow with the session count; a fresh one
// per session keeps sessions independent.
type market struct {
	srv    *httptest.Server
	tr     *http.Transport
	client *http.Client
	// meter and counter are set on traced markets only.
	meter   *routeMeter
	counter *countingTransport
	stop    context.CancelFunc
	done    chan struct{}
}

// startMarket starts a marketplace whose worker answers from d. A traced
// market times every request the server handles and counts every attempt
// the requester's client makes.
func startMarket(d *crowdsky.Dataset, traced bool) *market {
	m := &market{done: make(chan struct{})}
	handler := crowdserve.NewServer().Handler()
	if traced {
		m.meter = &routeMeter{next: handler}
		handler = m.meter
	}
	m.srv = httptest.NewServer(handler)
	m.tr = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	var rt http.RoundTripper = m.tr
	if traced {
		m.counter = &countingTransport{inner: m.tr}
		rt = m.counter
	}
	m.client = &http.Client{Transport: rt}
	ctx, cancel := context.WithCancel(context.Background())
	m.stop = cancel
	go func() {
		defer close(m.done)
		crowdserve.SimulateWorkers(ctx, m.srv.URL, crowdserve.WorkerConfig{
			Count: 1, Truth: crowd.DatasetTruth{Data: d}, Reliability: 1, PollInterval: workerPoll, Seed: 1,
		})
	}()
	return m
}

// platform returns the requester's marketplace client.
func (m *market) platform() crowd.Platform {
	c := crowdserve.NewClient(m.srv.URL)
	c.HTTPClient = m.client
	c.PollInterval = clientPoll
	c.MaxPollInterval = clientPollMax
	return c
}

// close stops the worker, waits for it, and shuts the server down.
func (m *market) close() {
	m.stop()
	<-m.done
	m.tr.CloseIdleConnections()
	m.srv.Close()
	// SimulateWorkers uses the default transport; drop its idle
	// connection so no socket outlives the market.
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// httpCall is one request the marketplace served.
type httpCall struct {
	route  string
	at     interval
	status int
}

// routeMeter times every request the marketplace handles, by route.
type routeMeter struct {
	next  http.Handler
	mu    sync.Mutex
	calls []httpCall // guarded by mu
}

// ServeHTTP implements http.Handler.
func (m *routeMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	m.next.ServeHTTP(sw, r)
	c := httpCall{route: routeOf(r), at: interval{start, time.Now()}, status: sw.status}
	m.mu.Lock()
	m.calls = append(m.calls, c)
	m.mu.Unlock()
}

// recorded returns the calls recorded so far.
func (m *routeMeter) recorded() []httpCall {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calls
}

// routes are the marketplace routes the per-layer metrics name.
var routes = []string{"post_round", "get_round", "get_work", "post_answer"}

// routeOf names the marketplace route r is for.
func routeOf(r *http.Request) string {
	switch p := r.URL.Path; {
	case r.Method == http.MethodPost && p == "/api/rounds":
		return "post_round"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/api/rounds/"):
		return "get_round"
	case r.Method == http.MethodGet && p == "/api/work":
		return "get_work"
	case r.Method == http.MethodPost && p == "/api/answers":
		return "post_answer"
	}
	return "other"
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader implements http.ResponseWriter.
func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// countingTransport counts the requester's HTTP attempts and the ones
// that failed in transport or with a 5xx.
type countingTransport struct {
	inner            http.RoundTripper
	attempts, failed atomic.Int64
}

// RoundTrip implements http.RoundTripper.
func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.attempts.Add(1)
	resp, err := t.inner.RoundTrip(req)
	if err != nil || resp.StatusCode >= 500 {
		t.failed.Add(1)
	}
	return resp, err
}
