package telemetry

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestJSONLConcurrentEmitters drives the JSONL tracer from many
// goroutines at once and checks the two invariants concurrent use must
// preserve: every line is intact JSON (no interleaved writes) and Seq is
// a gap-free 1..N ordering matching the write order.
func TestJSONLConcurrentEmitters(t *testing.T) {
	const (
		emitters = 8
		each     = 200
	)
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	var wg sync.WaitGroup
	wg.Add(emitters)
	for g := 0; g < emitters; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				j.Emit(SpanStart(testSC, "", fmt.Sprintf("emitter-%d", g), time.Time{}))
			}
		}(g)
	}
	wg.Wait()
	if err := j.Err(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}

	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("reading back interleaved stream: %v", err)
	}
	if len(events) != emitters*each {
		t.Fatalf("got %d events, want %d", len(events), emitters*each)
	}
	perEmitter := make(map[string]int)
	for i, e := range events {
		if e.Seq != i+1 {
			t.Fatalf("event %d has seq %d: sequence must be gap-free and ordered", i, e.Seq)
		}
		if e.Type != EventSpanStart || e.TraceID != testSC.TraceID {
			t.Fatalf("event %d = %+v: line corrupted", i, e)
		}
		perEmitter[e.Name]++
	}
	for g := 0; g < emitters; g++ {
		key := fmt.Sprintf("emitter-%d", g)
		if perEmitter[key] != each {
			t.Errorf("emitter %d: %d events survived, want %d", g, perEmitter[key], each)
		}
	}
}

// TestSpanConcurrentAttrs exercises SetAttr/End racing from several
// goroutines; run with -race this is the regression test for the span's
// internal locking.
func TestSpanConcurrentAttrs(t *testing.T) {
	var col Collector
	_, span := StartSpan(nil, &col, "race")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				span.SetAttr(fmt.Sprintf("k%d", g), fmt.Sprintf("%d", i))
			}
		}(g)
	}
	wg.Wait()
	span.End()
	ends := col.ByType(EventSpanEnd)
	if len(ends) != 1 || len(ends[0].Attrs) != 4 {
		t.Fatalf("span_end = %+v; want one event with 4 attrs", ends)
	}
}
