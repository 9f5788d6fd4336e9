// Seed input for FuzzSSABuild: struct literals and constructors of a small event type.
package traceschema

// EventType names a trace event, mirroring the telemetry package.
type EventType string

const (
	EventGood EventType = "good"
	EventBad  EventType = "bad"
	// EventOrphan is emitted somewhere but was never registered.
	EventOrphan EventType = "orphan"
	// The span pair mirrors telemetry's span_start/span_end: string ID
	// fields plus a map-typed attrs field, which must participate in the
	// exactly-the-registered-fields check like any scalar.
	EventSpanStart EventType = "span_start"
	EventSpanEnd   EventType = "span_end"
)

// skylint:eventschema
var eventSchemas = map[EventType][]string{
	EventGood:      {"round", "questions"},
	EventBad:       {"round", "missing_field"},
	EventSpanStart: {"trace_id", "span_id", "name"},
	EventSpanEnd:   {"trace_id", "span_id", "name", "attrs"},
}

// Event is the fixture's wire format. The implicit fields (seq, time,
// type) are allowed on every event type.
type Event struct {
	Seq       int               `json:"seq,omitempty"`
	Type      EventType         `json:"type"`
	Round     int               `json:"round,omitempty"`
	Questions int               `json:"questions,omitempty"`
	Extra     int               `json:"extra,omitempty"`
	TraceID   string            `json:"trace_id,omitempty"`
	SpanID    string            `json:"span_id,omitempty"`
	Name      string            `json:"name,omitempty"`
	Attrs     map[string]string `json:"attrs,omitempty"`
}

func newEvent(t EventType) Event {
	return Event{Type: t}
}

func sink(Event) {}

// GoodEvent assigns exactly the registered fields of "good".
func GoodEvent(round, questions int) Event {
	e := newEvent(EventGood)
	e.Round, e.Questions = round, questions
	return e
}

// MissingField forgets a registered field: consumers of "good" events
// would read a zero questions count.
func MissingField(round int) Event {
	e := newEvent(EventGood)
	e.Round = round
	return e
}

// StrayField populates a field the schema does not list: a silent
// wire-format break.
func StrayField(round, questions, extra int) Event {
	e := newEvent(EventGood)
	e.Round, e.Questions, e.Extra = round, questions, extra
	return e
}

// SpanEndEvent assigns exactly the registered span_end fields; the map
// assignment to Attrs counts like any scalar assignment.
func SpanEndEvent(traceID, spanID, name string, attrs map[string]string) Event {
	e := newEvent(EventSpanEnd)
	e.TraceID, e.SpanID, e.Name, e.Attrs = traceID, spanID, name, attrs
	return e
}

// SpanEndNoAttrs forgets the registered map field: consumers would read
// nil attrs on every span.
func SpanEndNoAttrs(traceID, spanID, name string) Event {
	e := newEvent(EventSpanEnd)
	e.TraceID, e.SpanID, e.Name = traceID, spanID, name
	return e
}

// SpanStartWithAttrs populates the map field on the start event, whose
// schema deliberately omits it (attrs are only final at span end).
func SpanStartWithAttrs(traceID, spanID, name string) Event {
	e := newEvent(EventSpanStart)
	e.TraceID, e.SpanID, e.Name = traceID, spanID, name
	e.Attrs = map[string]string{"k": "v"}
	return e
}

// emitLiterals exercises the Finish-phase literal check, which also
// covers Event literals in other packages.
func emitLiterals(round int) {
	sink(Event{Type: EventGood, Round: round})
	sink(Event{Type: EventGood, Extra: 1})
	sink(Event{Type: "mystery", Round: 1})
	sink(Event{Type: EventGood, Seq: 1}) // implicit field: clean
	sink(Event{Type: EventSpanStart, TraceID: "t", SpanID: "s", Name: "run"})
	sink(Event{Type: EventSpanStart, Attrs: map[string]string{"k": "v"}})
}

// --- metric half of the registry, mirroring telemetry.Registry ---

// Counter, Histogram and Registry are structural stand-ins for the
// telemetry package's metric types; the analyzer keys on a receiver named
// Registry, not on the import path.
type Counter struct{}

type CounterVec struct{}

type Histogram struct{}

type HistogramVec struct{}

type Registry struct{}

func (*Registry) NewCounter(name, help string) *Counter { return &Counter{} }
func (*Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{}
}
func (*Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	return &Histogram{}
}
func (*Registry) NewHistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{}
}

// MetricRequests is a named constant: constant names resolve through
// consts just like event types.
const MetricRequests = "fixture_requests_total"

// skylint:metricschema
var metricSchemas = map[string][]string{
	MetricRequests:            {"route", "code"},
	"fixture_rounds_total":    {},
	"fixture_latency_seconds": {},
}

// registerMetrics exercises the Finish-phase registration-site check.
func registerMetrics(reg *Registry, dynamicName string, dynamicLabels []string) {
	reg.NewCounter("fixture_rounds_total", "rounds")
	reg.NewCounterVec(MetricRequests, "requests", "route", "code")
	reg.NewHistogram("fixture_latency_seconds", "latency", []float64{0.1, 1})
	reg.NewCounter("fixture_mystery_total", "unregistered")
	reg.NewCounterVec(MetricRequests, "requests", "code", "route")
	reg.NewCounterVec("fixture_rounds_total", "rounds", "shard")
	reg.NewHistogramVec("fixture_latency_seconds", "latency", nil, "route")
	reg.NewCounter(dynamicName, "computed name: out of static scope")           // clean: runtime's job
	reg.NewCounterVec(MetricRequests, "spread labels: skip", dynamicLabels...)  // clean: not statically known
	reg.NewCounterVec(MetricRequests, "computed label: skip", dynamicName, "c") // clean: runtime's job
}
