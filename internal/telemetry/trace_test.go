package telemetry

import (
	"strings"
	"testing"
	"time"
)

// testSC is a fixed, valid span context for constructor-level tests.
var testSC = SpanContext{TraceID: "0af7651916cd43dd8448eb211c80319c", SpanID: "b7ad6b7169203331"}

func TestCollector(t *testing.T) {
	var c Collector
	now := time.Now()
	c.Emit(SpanStart(testSC, "", "run", now))
	c.Emit(SpanStart(SpanContext{TraceID: testSC.TraceID, SpanID: "00f067aa0ba902b7"}, testSC.SpanID, "round", now))
	c.Emit(SpanEnd(SpanContext{TraceID: testSC.TraceID, SpanID: "00f067aa0ba902b7"}, "round", nil, now, 0))
	c.Emit(SpanEnd(testSC, "run", map[string]string{"p1_removed": "3"}, now, 0))

	events := c.Events()
	if len(events) != 4 {
		t.Fatalf("collected %d events, want 4", len(events))
	}
	for i, e := range events {
		if e.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}
	ends := c.ByType(EventSpanEnd)
	if len(ends) != 2 || len(c.ByType(EventSpanStart)) != 2 {
		t.Fatalf("ByType split wrong: %d span_end of %d events", len(ends), len(events))
	}
	if run := ends[1]; run.Name != "run" || run.Attrs["p1_removed"] != "3" {
		t.Errorf("run span_end fields wrong: %+v", run)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var sb strings.Builder
	j := NewJSONL(&sb)
	child := SpanContext{TraceID: testSC.TraceID, SpanID: "00f067aa0ba902b7"}
	j.Emit(SpanStart(testSC, "", "run", time.Time{}))
	j.Emit(SpanStart(child, testSC.SpanID, "round", time.Time{}))
	j.Emit(SpanEnd(child, "round", map[string]string{"round": "1"}, time.Time{}, 1500*time.Microsecond))
	j.Emit(SpanEnd(testSC, "run", map[string]string{"algo": "parallel-sl"}, time.Time{}, 2*time.Millisecond))
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	// Only the span fields go on the wire: no per-type placeholder
	// fields such as a -1 tuple index.
	if strings.Contains(sb.String(), `":-1`) {
		t.Errorf("trace carries placeholder fields:\n%s", sb.String())
	}

	events, err := ReadEvents(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("read %d events, want 4", len(events))
	}
	if e := events[0]; e.Type != EventSpanStart || e.Name != "run" || e.TraceID != testSC.TraceID || e.ParentID != "" {
		t.Errorf("run span_start wrong: %+v", e)
	}
	if events[1].ParentID != testSC.SpanID {
		t.Errorf("round parent = %q, want %q", events[1].ParentID, testSC.SpanID)
	}
	if events[1].Seq != 2 || events[2].Seq != 3 {
		t.Errorf("sequence numbers wrong: %d, %d", events[1].Seq, events[2].Seq)
	}
	if events[2].DurationMS != 1.5 || events[2].Attrs["round"] != "1" {
		t.Errorf("round span_end wrong: %+v", events[2])
	}
	if events[3].Attrs["algo"] != "parallel-sl" {
		t.Errorf("run span_end attrs wrong: %+v", events[3])
	}
	if events[0].Time.IsZero() {
		t.Error("emitted event not timestamped")
	}
}

func TestReadEventsToleratesTornFinalLine(t *testing.T) {
	var sb strings.Builder
	j := NewJSONL(&sb)
	j.Emit(SpanStart(testSC, "", "run", time.Time{}))
	j.Emit(SpanEnd(testSC, "run", nil, time.Time{}, time.Millisecond))
	torn := sb.String()
	torn = torn[:len(torn)-10] // cut mid-way into the final line
	events, err := ReadEvents(strings.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Errorf("read %d events from torn stream, want 1", len(events))
	}
	// Malformed content before the end is an error, not silently dropped.
	if _, err := ReadEvents(strings.NewReader("garbage\n" + sb.String())); err == nil {
		t.Error("mid-stream garbage not rejected")
	}
}
