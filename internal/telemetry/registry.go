// Package telemetry is the runtime observability substrate: a
// dependency-free metrics registry (counters, gauges, histograms with
// atomic hot paths) with Prometheus text-format exposition, span traces
// for the crowd-enabled skyline algorithms and the marketplace, and HTTP
// middleware for the marketplace.
//
// The paper's whole contribution is a cost/latency/accuracy trade-off
// (questions, rounds, pruning power of P1/P2/P3 — Sections 3-6), so a
// production deployment must be able to watch those quantities move while
// a run is in flight, not just read end-of-run totals. Everything here is
// standard library only and safe for concurrent use; disabled tracing is a
// nil-pointer check on the hot path.
package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default histogram bucket upper bounds in seconds,
// matching the Prometheus client defaults: fine resolution around typical
// HTTP latencies, coarse tail for slow crowd rounds.
var DefBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Counter is a monotonically increasing count. All methods are safe for
// concurrent use; Inc/Add are a single atomic add.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an integer value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into cumulative buckets with upper bounds
// ("le" labels, inclusive) plus a +Inf overflow bucket, and tracks the sum
// of observed values. Observe is lock-free: one binary search and two
// atomic adds (plus a CAS loop for the float sum).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits

	emu       sync.Mutex
	exemplars []exemplar // skylint:guardedby emu — len(bounds)+1, last is +Inf
}

// exemplar is the most recent traced observation that landed in a bucket:
// it links a latency outlier visible in /metrics to the trace that caused
// it (OpenMetrics exemplar semantics, keeping only the latest per bucket).
type exemplar struct {
	value   float64
	traceID string
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is >= v ("le" is inclusive); beyond
	// every bound lands in the +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, upd) {
			return
		}
	}
}

// ObserveExemplar records one value and, when traceID is non-empty,
// attaches it as the bucket's exemplar so the observation can be traced
// back from the exposition output. With an empty traceID it is exactly
// Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.emu.Lock()
	if h.exemplars == nil {
		h.exemplars = make([]exemplar, len(h.bounds)+1)
	}
	h.exemplars[i] = exemplar{value: v, traceID: traceID}
	h.emu.Unlock()
}

// bucketExemplar returns the exemplar for bucket i, if one was recorded.
func (h *Histogram) bucketExemplar(i int) (exemplar, bool) {
	h.emu.Lock()
	defer h.emu.Unlock()
	if h.exemplars == nil || h.exemplars[i].traceID == "" {
		return exemplar{}, false
	}
	return h.exemplars[i], true
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// CounterVec is a family of counters partitioned by label values.
type CounterVec struct {
	labels   []string
	mu       sync.Mutex
	children map[string]*Counter // skylint:guardedby mu
}

// With returns the counter for the given label values (one per label name,
// in declaration order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	key := labelKey(v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		c = &Counter{}
		v.children[key] = c
	}
	return c
}

// HistogramVec is a family of histograms partitioned by label values.
type HistogramVec struct {
	labels   []string
	bounds   []float64
	mu       sync.Mutex
	children map[string]*Histogram // skylint:guardedby mu
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	key := labelKey(v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[key]
	if !ok {
		h = newHistogram(v.bounds)
		v.children[key] = h
	}
	return h
}

// labelKey renders the {name="value",...} sample suffix, which doubles as
// the child lookup key.
func labelKey(labels, values []string) string {
	if len(values) != len(labels) {
		panic(fmt.Sprintf("telemetry: got %d label values for labels %v", len(values), labels))
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// family is one registered metric name with its exposition metadata.
type family struct {
	name string
	help string
	kind string // "counter", "gauge" or "histogram"

	counter      *Counter
	gauge        *Gauge
	gaugeFn      func() float64
	histogram    *Histogram
	counterVec   *CounterVec
	histogramVec *HistogramVec
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Registration methods panic on duplicate names —
// metric names are code-level constants, so a duplicate is a programming
// error worth failing loudly on.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family // skylint:guardedby mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic("telemetry: duplicate metric " + f.name)
	}
	r.families[f.name] = f
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, kind: "counter", counter: c})
	return c
}

// NewCounterVec registers and returns a labelled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: labels, children: make(map[string]*Counter)}
	r.register(&family{name: name, help: help, kind: "counter", counterVec: v})
	return v
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, kind: "gauge", gauge: g})
	return g
}

// NewGaugeFunc registers a gauge whose value is computed by fn at scrape
// time (for values derived from existing state, e.g. queue lengths). fn
// must be safe for concurrent use.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: "gauge", gaugeFn: fn})
}

// NewHistogram registers and returns a histogram with the given bucket
// upper bounds (DefBuckets when none are given).
func (r *Registry) NewHistogram(name, help string, buckets ...float64) *Histogram {
	h := newHistogram(buckets)
	r.register(&family{name: name, help: help, kind: "histogram", histogram: h})
	return h
}

// NewHistogramVec registers and returns a labelled histogram family.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	b := append([]float64(nil), buckets...)
	sort.Float64s(b)
	v := &HistogramVec{labels: labels, bounds: b, children: make(map[string]*Histogram)}
	r.register(&family{name: name, help: help, kind: "histogram", histogramVec: v})
	return v
}

// WriteTo renders every registered metric in the Prometheus text format
// (version 0.0.4), families sorted by name, labelled children sorted by
// label key. It implements io.WriterTo.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var buf bytes.Buffer
	for _, f := range fams {
		f.write(&buf)
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

func (f *family) write(buf *bytes.Buffer) {
	fmt.Fprintf(buf, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
	fmt.Fprintf(buf, "# TYPE %s %s\n", f.name, f.kind)
	switch {
	case f.counter != nil:
		fmt.Fprintf(buf, "%s %d\n", f.name, f.counter.Value())
	case f.gauge != nil:
		fmt.Fprintf(buf, "%s %d\n", f.name, f.gauge.Value())
	case f.gaugeFn != nil:
		fmt.Fprintf(buf, "%s %s\n", f.name, formatFloat(f.gaugeFn()))
	case f.histogram != nil:
		writeHistogram(buf, f.name, "", f.histogram)
	case f.counterVec != nil:
		f.counterVec.mu.Lock()
		keys := sortedKeys(f.counterVec.children)
		for _, k := range keys {
			fmt.Fprintf(buf, "%s%s %d\n", f.name, k, f.counterVec.children[k].Value())
		}
		f.counterVec.mu.Unlock()
	case f.histogramVec != nil:
		f.histogramVec.mu.Lock()
		keys := sortedKeys(f.histogramVec.children)
		children := make(map[string]*Histogram, len(keys))
		for _, k := range keys {
			children[k] = f.histogramVec.children[k]
		}
		f.histogramVec.mu.Unlock()
		for _, k := range keys {
			writeHistogram(buf, f.name, k, children[k])
		}
	}
}

// writeHistogram renders one histogram; labels is the rendered
// {name="value"} suffix ("" for unlabelled histograms). Bucket counts are
// cumulative, per the exposition format.
func writeHistogram(buf *bytes.Buffer, name, labels string, h *Histogram) {
	joint := func(extra string) string {
		if labels == "" {
			return "{" + extra + "}"
		}
		return labels[:len(labels)-1] + "," + extra + "}"
	}
	// Exemplars render OpenMetrics-style after the bucket value
	// (`# {trace_id="..."} value`); Prometheus text-format parsers treat
	// everything after # as a comment, so plain 0.0.4 scrapers stay happy.
	writeBucket := func(i int, le string, cum uint64) {
		fmt.Fprintf(buf, "%s_bucket%s %d", name, joint(`le="`+le+`"`), cum)
		if ex, ok := h.bucketExemplar(i); ok {
			fmt.Fprintf(buf, ` # {trace_id="%s"} %s`, escapeLabel(ex.traceID), formatFloat(ex.value))
		}
		buf.WriteByte('\n')
	}
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		writeBucket(i, formatFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	writeBucket(len(h.bounds), "+Inf", cum)
	fmt.Fprintf(buf, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(buf, "%s_count%s %d\n", name, labels, h.Count())
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Handler returns an http.Handler serving the registry in the Prometheus
// text format (a GET /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}
