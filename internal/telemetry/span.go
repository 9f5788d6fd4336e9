package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strings"
	"sync"
	"time"
)

// Hierarchical spans: the trace stream's only record. A Span is one timed
// operation (a run, a crowd round, a lease wait); spans nest through
// parent IDs and cross process boundaries through the W3C traceparent
// header, so a single trace ID stitches an algorithm run on the requester
// to the lease/judgment lifecycle inside the marketplace. Spans are
// emitted through the Tracer interface as paired span_start / span_end
// events, one JSONL stream that ReadEvents and every downstream consumer
// (cmd/skytrace, jq) parse.

// TraceParentHeader is the canonical W3C trace-context header name.
const TraceParentHeader = "traceparent"

// SpanContext identifies one span within one trace: a 16-byte trace ID
// and an 8-byte span ID, both lowercase hex. The zero value is invalid.
type SpanContext struct {
	TraceID string // 32 lowercase hex characters
	SpanID  string // 16 lowercase hex characters
}

// Valid reports whether both IDs have the right shape and are non-zero,
// per the W3C trace-context rules.
func (sc SpanContext) Valid() bool {
	return isHexID(sc.TraceID, 32) && isHexID(sc.SpanID, 16)
}

// TraceParent renders the context as a W3C traceparent header value:
// version 00, sampled flag set.
func (sc SpanContext) TraceParent() string {
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ParseTraceParent parses a W3C traceparent header value. Unknown versions
// are accepted as long as the trace and parent IDs are well formed
// (the spec's forward-compatibility rule); the invalid version ff and
// all-zero IDs are rejected.
func ParseTraceParent(s string) (SpanContext, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 {
		return SpanContext{}, false
	}
	version, traceID, spanID := parts[0], parts[1], parts[2]
	if len(version) != 2 || !isHex(version) || version == "ff" {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: traceID, SpanID: spanID}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// isHexID reports whether s is exactly n lowercase hex characters and not
// all zeros.
func isHexID(s string, n int) bool {
	if len(s) != n || !isHex(s) {
		return false
	}
	return strings.Trim(s, "0") != ""
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// randHex returns n cryptographically random bytes as 2n hex characters.
// crypto/rand never fails on the supported platforms; if it somehow does,
// tracing degrades to a fixed ID rather than aborting a paid crowd run.
func randHex(n int) string {
	buf := make([]byte, n)
	if _, err := rand.Read(buf); err != nil {
		for i := range buf {
			buf[i] = 0xff
		}
	}
	return hex.EncodeToString(buf)
}

// Span is one in-flight timed operation. Create spans with StartSpan and
// finish them with End, which emits the span_end event carrying the
// duration and the accumulated attributes. All methods are safe on a nil
// receiver (the disabled-tracing path) and safe for concurrent use.
type Span struct {
	sc       SpanContext
	parentID string
	name     string
	start    time.Time
	tracer   Tracer

	mu    sync.Mutex
	attrs map[string]string // skylint:guardedby mu
	ended bool              // skylint:guardedby mu
}

// Context returns the span's trace/span ID pair (zero for a nil span).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceID returns the span's trace ID, or "" for a nil span.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.sc.TraceID
}

// Name returns the span's name, or "" for a nil span.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr attaches a key/value attribute, carried on the span_end event.
// Calls after End are ignored.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
}

// End emits the span_end event with the span's wall-clock duration.
// Ending twice is a no-op, so defer span.End() composes with early exits.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	// SetAttr never writes after ended is set, so the map can be handed
	// to the event without a copy.
	attrs := s.attrs
	s.mu.Unlock()
	end := time.Now().UTC()
	// StartSpan builds a span only for a non-nil tracer.
	s.tracer.Emit(SpanEnd(s.sc, s.name, attrs, end, end.Sub(s.start)))
}

// Context keys for the active span and for a remote (cross-process)
// parent extracted from a traceparent header.
type spanKey struct{}
type remoteKey struct{}

// ContextWithSpan returns a context carrying span as the active span.
func ContextWithSpan(ctx context.Context, span *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, span)
}

// SpanFromContext returns the active span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// ContextWithRemote returns a context carrying a remote parent span
// context (typically extracted from an incoming traceparent header).
// StartSpan parents new spans under it when no local span is active.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, remoteKey{}, sc)
}

// ActiveSpanContext returns the span context that outgoing requests
// should propagate: the active local span's, else the remote parent's,
// else the zero SpanContext.
func ActiveSpanContext(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	if s := SpanFromContext(ctx); s != nil {
		return s.sc
	}
	sc, _ := ctx.Value(remoteKey{}).(SpanContext)
	return sc
}

// StartSpan starts a span named name and returns a context carrying it as
// the active span. The parent is the active span in ctx (whose tracer is
// inherited when tracer is nil), else a remote span context placed by
// ContextWithRemote, else the span roots a new trace. With no usable
// tracer the call is a no-op returning (ctx, nil): the nil *Span accepts
// every method, so call sites need no guards beyond the usual nil-tracer
// check for performance.
func StartSpan(ctx context.Context, tracer Tracer, name string) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	var traceID, parentID string
	if parent := SpanFromContext(ctx); parent != nil {
		traceID, parentID = parent.sc.TraceID, parent.sc.SpanID
		if tracer == nil {
			tracer = parent.tracer
		}
	} else if rsc, ok := ctx.Value(remoteKey{}).(SpanContext); ok && rsc.Valid() {
		traceID, parentID = rsc.TraceID, rsc.SpanID
	}
	if tracer == nil {
		return ctx, nil
	}
	if traceID == "" {
		traceID = randHex(16)
	}
	s := &Span{
		sc:       SpanContext{TraceID: traceID, SpanID: randHex(8)},
		parentID: parentID,
		name:     name,
		start:    time.Now().UTC(),
		tracer:   tracer,
	}
	tracer.Emit(SpanStart(s.sc, s.parentID, s.name, s.start))
	return ContextWithSpan(ctx, s), s
}

// SpanStart builds a span_start event at the given start time.
func SpanStart(sc SpanContext, parentID, name string, start time.Time) Event {
	return Event{Type: EventSpanStart, Time: start,
		TraceID: sc.TraceID, SpanID: sc.SpanID, ParentID: parentID, Name: name}
}

// SpanEnd builds a span_end event at the given end time with the span's
// duration and final attributes.
func SpanEnd(sc SpanContext, name string, attrs map[string]string, end time.Time, d time.Duration) Event {
	return Event{Type: EventSpanEnd, Time: end,
		TraceID: sc.TraceID, SpanID: sc.SpanID, Name: name, Attrs: attrs,
		DurationMS: float64(d) / float64(time.Millisecond)}
}
