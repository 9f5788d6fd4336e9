// Package faultinject is a deterministic, seedable fault-injection
// framework for the crowdserve path: HTTP transport faults for the
// marketplace client (connection resets, 5xx, injected latency, truncated
// bodies), platform faults for simulated worker fleets (no-shows,
// duplicate submissions, stale leases), and journal faults (torn writes).
//
// The paper's cost-saving invariant — the crowdsourced skyline equals the
// oracle skyline while no answered pair is ever re-purchased — must hold
// not only on the happy path but across network blips, worker
// misbehaviour, and crashes. This package supplies the faults; the chaos
// suite (the internal/crowdserve chaos tests) drives full sessions under
// them and asserts the invariant against the oracle skyline. See docs/ROBUSTNESS.md for the fault matrix and the recovery
// guarantees each injection point exercises.
//
// Everything is driven by a Plan: one seed fans out into independent
// per-injection-point RNG streams, so adding or removing one injection
// point never perturbs another point's schedule, and the same seed always
// reproduces the same fault sequence for a given request interleaving.
package faultinject

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"

	"crowdsky/internal/telemetry"
)

// Kind names one injectable fault, used for accounting and the
// crowdserve_faults_injected_total metric's kind label.
type Kind string

// The fault vocabulary. Transport kinds are injected by Transport,
// worker kinds by WorkerFaults (via crowdserve.SimulateWorkers), and
// journal kinds by TornWriter.
const (
	// KindConnResetBefore drops the request before it reaches the
	// server: the round trip fails and no server state changes.
	KindConnResetBefore Kind = "conn_reset_before"
	// KindConnResetAfter lets the server process the request, then
	// drops the response: the client sees an error for work that
	// happened — the case idempotency keys exist for.
	KindConnResetAfter Kind = "conn_reset_after"
	// KindHTTP503 short-circuits the request with a synthesized 503.
	KindHTTP503 Kind = "http_503"
	// KindLatency delays the request by a random duration.
	KindLatency Kind = "latency"
	// KindTruncateBody forwards the request but cuts the response body
	// short, so JSON decoding fails client-side.
	KindTruncateBody Kind = "truncate_body"
	// KindWorkerNoShow makes a worker lease an assignment and never
	// answer it; the lease must lapse and the slot requeue.
	KindWorkerNoShow Kind = "worker_no_show"
	// KindWorkerDuplicate makes a worker submit the same judgment twice;
	// the server must count it once.
	KindWorkerDuplicate Kind = "worker_duplicate"
	// KindWorkerStale makes a worker hold an assignment past its lease
	// and submit late; the server must reject the stale judgment.
	KindWorkerStale Kind = "worker_stale"
	// KindJournalTear truncates a journal write mid-record, as a crash
	// between write and fsync would.
	KindJournalTear Kind = "journal_tear"
)

// Plan is the seeded root of a fault schedule. It hands out independent
// deterministic RNG streams per injection point and accumulates counts of
// every fault actually injected. All methods are safe for concurrent use.
type Plan struct {
	seed int64

	mu     sync.Mutex
	counts map[Kind]uint64 // skylint:guardedby mu

	// metrics, when set via InstrumentMetrics, mirrors counts as the
	// crowdserve_faults_injected_total counter family.
	metrics *telemetry.CounterVec
}

// NewPlan returns a fault plan rooted at seed. The same seed yields the
// same per-point RNG streams on every run.
func NewPlan(seed int64) *Plan {
	return &Plan{seed: seed, counts: make(map[Kind]uint64)}
}

// Rand derives the deterministic RNG stream for the named injection
// point. Streams for distinct names are independent: each is seeded from
// the plan seed combined with a hash of the name, so wiring a new
// injection point into a plan never shifts the schedule of existing ones.
func (p *Plan) Rand(point string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(point)) // skylint:ignore errdrop fnv.Write never fails
	return rand.New(rand.NewSource(p.seed ^ int64(h.Sum64())))
}

// Record books one injected fault of the given kind.
func (p *Plan) Record(k Kind) {
	p.mu.Lock()
	p.counts[k]++
	p.mu.Unlock()
	if p.metrics != nil {
		p.metrics.With(string(k)).Inc()
	}
}

// Counts returns a copy of the per-kind injection tally.
func (p *Plan) Counts() map[Kind]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[Kind]uint64, len(p.counts))
	for k, n := range p.counts {
		out[k] = n
	}
	return out
}

// Total returns the number of faults injected so far across all kinds.
func (p *Plan) Total() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n uint64
	for _, c := range p.counts {
		n += c
	}
	return n
}

// Kinds returns the kinds injected so far in sorted order, for
// deterministic reporting.
func (p *Plan) Kinds() []Kind {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Kind, 0, len(p.counts))
	for k := range p.counts {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InstrumentMetrics registers crowdserve_faults_injected_total on reg and
// mirrors every subsequent Record into it, labelled by kind.
func (p *Plan) InstrumentMetrics(reg *telemetry.Registry) {
	p.metrics = reg.NewCounterVec("crowdserve_faults_injected_total",
		"Faults injected by the faultinject plan, by kind.", "kind")
}
