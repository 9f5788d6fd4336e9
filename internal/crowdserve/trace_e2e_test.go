package crowdserve

import (
	"context"
	"strconv"
	"testing"
	"time"

	"crowdsky/internal/core"
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/telemetry"
)

// TestCrossProcessTrace runs the full algorithm over the HTTP marketplace
// with tracing on both sides and asserts the ISSUE acceptance criterion:
// the client and the server emit spans under ONE shared trace ID
// (propagated via the traceparent header), and the root run span frames
// the client's stream.
func TestCrossProcessTrace(t *testing.T) {
	srv, ts := newTestServer(t)
	serverTrace := &telemetry.Collector{}
	srv.SetTracer(serverTrace)

	d := dataset.Toy()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workersDone := make(chan struct{})
	go func() {
		defer close(workersDone)
		SimulateWorkers(ctx, ts.URL, WorkerConfig{
			Count:        4,
			Truth:        crowd.DatasetTruth{Data: d},
			Reliability:  1.0,
			PollInterval: 2 * time.Millisecond,
			Seed:         1,
		})
	}()

	client := NewClient(ts.URL)
	client.PollInterval = 2 * time.Millisecond
	clientTrace := &telemetry.Collector{}
	opts := slOptions()
	opts.Tracer = clientTrace
	res := core.Run(d, client, opts)

	cancel()
	<-workersDone

	if res.Rounds == 0 {
		t.Fatal("run made no rounds; nothing to trace")
	}

	// One trace ID across every client-side span.
	clientSpans := clientTrace.ByType(telemetry.EventSpanEnd)
	if len(clientSpans) == 0 {
		t.Fatal("client emitted no spans")
	}
	traceID := clientSpans[0].TraceID
	names := map[string]int{}
	for _, e := range clientSpans {
		if e.TraceID != traceID {
			t.Fatalf("client span %q has trace %s, want %s", e.Name, e.TraceID, traceID)
		}
		names[e.Name]++
	}
	for _, want := range []string{"run", "round", "round_submit", "round_wait"} {
		if names[want] == 0 {
			t.Errorf("client trace missing %q span (have %v)", want, names)
		}
	}
	if names["round"] != res.Rounds {
		t.Errorf("%d round spans, want one per round (%d)", names["round"], res.Rounds)
	}

	// The server, a separate process boundary away, joined the SAME trace
	// via the traceparent header.
	// Worker polls carry no traceparent, so their http spans start fresh
	// traces — the crowd-lifecycle spans are the ones that must have
	// joined the client's trace.
	serverSpans := serverTrace.ByType(telemetry.EventSpanEnd)
	if len(serverSpans) == 0 {
		t.Fatal("server emitted no spans")
	}
	lifecycle := map[string]bool{
		"server_round": true, "lease_wait": true,
		"judgment": true, "vote_resolve": true,
	}
	srvNames := map[string]int{}
	for _, e := range serverSpans {
		if !lifecycle[e.Name] {
			continue
		}
		if e.TraceID != traceID {
			t.Fatalf("server span %q has trace %s, want the client's %s", e.Name, e.TraceID, traceID)
		}
		srvNames[e.Name]++
	}
	for _, want := range []string{"server_round", "lease_wait", "judgment", "vote_resolve"} {
		if srvNames[want] == 0 {
			t.Errorf("server trace missing %q span (have %v)", want, srvNames)
		}
	}
	if srvNames["judgment"] != res.Questions {
		t.Errorf("%d judgment spans, want one per question (%d)", srvNames["judgment"], res.Questions)
	}

	// The root run span frames the client's stream: its start opens it,
	// its end closes it.
	events := clientTrace.Events()
	first, last := events[0], events[len(events)-1]
	if first.Type != telemetry.EventSpanStart || first.Name != "run" || first.ParentID != "" {
		t.Fatalf("first event is %s %q (parent %q), want the root run span_start", first.Type, first.Name, first.ParentID)
	}
	if last.Type != telemetry.EventSpanEnd || last.SpanID != first.SpanID {
		t.Fatalf("last event is %s %q, want the run span_end", last.Type, last.Name)
	}
	if got := last.Attrs["questions"]; got != strconv.Itoa(res.Questions) {
		t.Errorf("run span questions = %s, want %d", got, res.Questions)
	}

	// Server-side parenting: every server_round hangs off a client-side
	// http span or directly off the propagated remote span context.
	clientIDs := map[string]bool{}
	for _, e := range clientSpans {
		clientIDs[e.SpanID] = true
	}
	starts := serverTrace.ByType(telemetry.EventSpanStart)
	serverIDs := map[string]bool{}
	for _, e := range starts {
		serverIDs[e.SpanID] = true
	}
	for _, e := range starts {
		if e.Name != "server_round" {
			continue
		}
		if e.ParentID == "" {
			t.Error("server_round span is a root; traceparent parenting lost")
		} else if !clientIDs[e.ParentID] && !serverIDs[e.ParentID] {
			t.Errorf("server_round parent %s not found on either side", e.ParentID)
		}
	}
}
