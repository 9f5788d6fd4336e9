package main

import (
	"math"
	"math/rand"
	"sort"
)

// minBeyond is how many samples must lie above a tail percentile before
// the benchmark reports it; with fewer, the percentile is one or two
// unlucky samples and would not repeat.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count). It sorts xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// tail returns the nearest-rank p-quantile of xs (0 < p < 1) and whether
// at least minBeyond samples lie above it. It sorts xs in place.
func tail(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	sort.Float64s(xs)
	// The epsilon keeps p·n that lands a rounding error above a whole
	// number (0.9·100) from skipping a rank.
	k := int(math.Ceil(p*float64(len(xs)) - 1e-9))
	if k < 1 {
		k = 1
	}
	return xs[k-1], len(xs)-k >= minBeyond
}

// spread estimates how far a median of xs moves between runs: the
// interquartile range over the median, divided by √len(xs) (the median of
// n samples varies about IQR/√n). It sorts xs in place.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return math.NaN()
	}
	sort.Float64s(xs)
	q1 := xs[len(xs)/4]
	q3 := xs[(3*len(xs))/4]
	m := median(xs)
	if m == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(m) / math.Sqrt(float64(len(xs)))
}

// reservoirSize bounds the per-round samples a run keeps.
const reservoirSize = 1 << 16

// reservoir keeps a uniform random sample of at most reservoirSize values
// of a stream (Algorithm R). A run sees up to a million rounds; keeping
// them all would make the benchmark's own memory, and so peak_rss_mb,
// grow with the machine's speed.
type reservoir struct {
	vals []float64
	seen int
	rng  *rand.Rand
}

func newReservoir() *reservoir {
	return &reservoir{rng: rand.New(rand.NewSource(1))}
}

func (r *reservoir) add(v float64) {
	r.seen++
	if len(r.vals) < reservoirSize {
		r.vals = append(r.vals, v)
	} else if j := r.rng.Intn(r.seen); j < reservoirSize {
		r.vals[j] = v
	}
}

// metric describes one metric: its unit, which direction is better, and
// how two runs' values are judged.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound, when positive, is the worsening tolerated between two runs as
	// a share of the first. The end-to-end metrics with a bound are the
	// ones BENCHMARK.json declares; the others are reported, not judged.
	bound float64
	// exact marks counts that repeat exactly when the session count is
	// fixed; -compare then requires identical values.
	exact bool
	// only lists the workloads the metric is reported on; nil means all.
	only []string
	// layer marks a per-layer metric, reported by traced runs.
	layer bool
}

// listed reports whether BENCHMARK.json declares m. A -workload run
// prints the listed metrics of its mode in its final JSON line, so each
// must be reported on every workload.
func (m metric) listed() bool {
	if m.layer {
		return m.only == nil
	}
	return m.bound > 0
}

// Workload names, used by the catalogue and the workload table.
const (
	wlSL     = "sl-ind-4k"
	wlSerial = "serial-ant-5k"
	wlNoisy  = "noisy-dset-ind-1k"
	wlServe  = "serve-sl-ant-1k"
)

// catalogue lists every metric the benchmark reports. The listed ones
// must agree with BENCHMARK.json (main_test.go checks it).
var catalogue = []metric{
	// End to end, from the timed run. Wall-clock timings move 10-20%
	// between runs on a shared host, so the judged timing is the
	// calibrated session time (see calibration); the others are reported
	// for reading, not judged.
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "session_cal_p50", unit: "ref", better: "lower", bound: 0.25},
	{name: "session_s_p50", unit: "s", better: "lower"},
	{name: "round_compute_ms_p50", unit: "ms", better: "lower"},
	{name: "round_compute_ms_p95", unit: "ms", better: "lower", only: []string{wlSL}},
	{name: "round_compute_ms_p99", unit: "ms", better: "lower", only: []string{wlSerial, wlNoisy, wlServe}},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.1},
	{name: "questions_per_session", unit: "count", better: "lower", bound: 0.1, exact: true},
	{name: "rounds_per_session", unit: "count", better: "lower", bound: 0.2, exact: true},
	{name: "cost_usd_per_session", unit: "USD", better: "lower", exact: true},
	{name: "f1", unit: "ratio", better: "higher", bound: 0.05, exact: true},
	{name: "serve_round_ms_p50", unit: "ms", better: "lower", only: []string{wlServe}},
	{name: "serve_round_ms_p99", unit: "ms", better: "lower", only: []string{wlServe}},
	{name: "judgments_per_s", unit: "1/s", better: "higher", only: []string{wlServe}},
	{name: "error_ratio", unit: "ratio", better: "lower", exact: true},
	{name: "calibration_ms", unit: "ms", better: "lower"},

	// Per layer, from the traced run.
	{name: "skyline.index_build_ms", unit: "ms", better: "lower", layer: true},
	{name: "skyline.dominating_sets_ms", unit: "ms", better: "lower", layer: true},
	{name: "skyline.immediate_dominators_ms", unit: "ms", better: "lower", layer: true},
	{name: "skyline.index_bitmap_mb", unit: "MB", better: "lower", layer: true},
	{name: "skyline.dominating_set_pairs", unit: "count", better: "lower", layer: true},
	{name: "skyline.immediate_dominator_edges", unit: "count", better: "lower", layer: true},
	{name: "prefgraph.replay_ms", unit: "ms", better: "lower", layer: true},
	{name: "prefgraph.ns_per_answer", unit: "ns", better: "lower", layer: true},
	{name: "prefgraph.answers_applied", unit: "count", better: "lower", layer: true},
	{name: "prefgraph.edges", unit: "count", better: "lower", layer: true},
	{name: "prefgraph.unions", unit: "count", better: "lower", layer: true},
	{name: "prefgraph.contradictions", unit: "count", better: "lower", layer: true},
	{name: "prefgraph.alloc_mb", unit: "MB", better: "lower", layer: true},
	{name: "crowd.ask_calls", unit: "count", better: "lower", layer: true},
	{name: "crowd.ask_ms_total", unit: "ms", better: "lower", layer: true},
	{name: "crowd.questions_per_round_mean", unit: "count", better: "higher", layer: true},
	{name: "crowd.questions_per_round_max", unit: "count", better: "higher", layer: true},
	{name: "crowd.worker_answers", unit: "count", better: "lower", layer: true},
	{name: "crowd.mistakes", unit: "count", better: "lower", layer: true},
	{name: "voting.workers_per_question_mean", unit: "count", better: "lower", layer: true},
	{name: "voting.escalated_share", unit: "ratio", better: "lower", layer: true},
	{name: "core.self_ms", unit: "ms", better: "lower", layer: true},
	{name: "core.self_share", unit: "ratio", better: "lower", layer: true},
	{name: "core.question_ratio", unit: "ratio", better: "lower", layer: true},
	{name: "crowdserve.http_requests_per_round", unit: "count", better: "lower", layer: true},
	{name: "crowdserve.polls_per_round", unit: "count", better: "lower", layer: true},
	{name: "crowdserve.handler_ms_p50.post_round", unit: "ms", better: "lower", layer: true, only: []string{wlServe}},
	{name: "crowdserve.handler_ms_p50.get_round", unit: "ms", better: "lower", layer: true, only: []string{wlServe}},
	{name: "crowdserve.handler_ms_p50.get_work", unit: "ms", better: "lower", layer: true, only: []string{wlServe}},
	{name: "crowdserve.handler_ms_p50.post_answer", unit: "ms", better: "lower", layer: true, only: []string{wlServe}},
	{name: "crowdserve.handler_busy_share", unit: "ratio", better: "lower", layer: true},
	{name: "crowdserve.work_empty_ratio", unit: "ratio", better: "lower", layer: true},
	{name: "crowdserve.client_attempts_per_request", unit: "count", better: "lower", layer: true},
	{name: "crowdserve.client_failed_requests", unit: "count", better: "lower", layer: true},
	{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower", layer: true},
	{name: "runtime.alloc_mb_per_session", unit: "MB", better: "lower", layer: true},
	{name: "runtime.allocs_per_session", unit: "count", better: "lower", layer: true},
	{name: "trace.overhead_share", unit: "ratio", better: "lower", layer: true},
}

// catalogueIndex returns name's position in the catalogue, or its
// length when name is not there.
func catalogueIndex(name string) int {
	for i, m := range catalogue {
		if m.name == name {
			return i
		}
	}
	return len(catalogue)
}

// lookup returns the catalogue entry for name.
func lookup(name string) (metric, bool) {
	if i := catalogueIndex(name); i < len(catalogue) {
		return catalogue[i], true
	}
	return metric{}, false
}

// reportedOn reports whether m is reported on workload w.
func (m metric) reportedOn(w string) bool {
	if m.only == nil {
		return true
	}
	for _, o := range m.only {
		if o == w {
			return true
		}
	}
	return false
}
