package telemetry

import (
	"sync"
	"time"
)

// EventType names a trace event. Every event is one half of a span (see
// span.go): the paper's accounting — rounds, questions, and the savings of
// the three pruning methods — rides on span attributes.
type EventType string

// Trace event types.
const (
	// EventSpanStart opens a hierarchical span (TraceID, SpanID, ParentID,
	// Name); see span.go.
	EventSpanStart EventType = "span_start"
	// EventSpanEnd closes a span (TraceID, SpanID, Name, DurationMS,
	// Attrs); paired with span_start by SpanID.
	EventSpanEnd EventType = "span_end"
)

// Event is one structured trace event: the bookkeeping fields every event
// carries plus the span fields, unused ones omitted from JSON.
type Event struct {
	Seq  int       `json:"seq,omitempty"`
	Time time.Time `json:"time"`
	Type EventType `json:"type"`

	TraceID    string            `json:"trace_id,omitempty"`    // span_*: 32-hex trace ID
	SpanID     string            `json:"span_id,omitempty"`     // span_*: 16-hex span ID
	ParentID   string            `json:"parent_id,omitempty"`   // span_start: parent span ID
	Name       string            `json:"name,omitempty"`        // span_*: operation name
	DurationMS float64           `json:"duration_ms,omitempty"` // span_end: wall time
	Attrs      map[string]string `json:"attrs,omitempty"`       // span_end: attributes
}

// Tracer receives algorithm trace events. Implementations must be safe
// for concurrent use: a core session emits the qgen spans of one
// admission from several goroutines, and platform decorators and
// servers emit from their own.
//
// A nil Tracer means tracing is disabled; emitters check for nil before
// building the event, so the disabled path costs one pointer comparison.
type Tracer interface {
	Emit(Event)
}

// Collector is a Tracer that appends every event to memory; intended for
// tests and in-process inspection.
type Collector struct {
	mu     sync.Mutex
	events []Event // skylint:guardedby mu
}

// Emit implements Tracer.
func (c *Collector) Emit(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.Seq = len(c.events) + 1
	c.events = append(c.events, e)
}

// Events returns a copy of the collected events in emission order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// ByType returns the collected events of one type, in emission order.
func (c *Collector) ByType(t EventType) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Event
	for _, e := range c.events {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}
