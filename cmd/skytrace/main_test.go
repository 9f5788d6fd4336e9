package main

import (
	"strings"
	"testing"
	"time"

	"crowdsky/internal/telemetry"
)

// synthetic trace: a 100ms run containing one 80ms round; inside the
// round a 5ms submit and a 70ms wait; under the wait (via cross-process
// propagation) a lease_wait and a judgment.
func syntheticEvents(t *testing.T) []telemetry.Event {
	t.Helper()
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	tid := strings.Repeat("ab", 16)
	sid := func(i byte) string { return strings.Repeat(string([]byte{'a' + i}), 16) }
	sc := func(i byte) telemetry.SpanContext { return telemetry.SpanContext{TraceID: tid, SpanID: sid(i)} }

	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	span := func(i byte, parent byte, name string, startMS, endMS int, attrs map[string]string) []telemetry.Event {
		pid := ""
		if parent != 0 {
			pid = sid(parent)
		}
		return []telemetry.Event{
			telemetry.SpanStart(sc(i), pid, name, at(startMS)),
			telemetry.SpanEnd(sc(i), name, attrs, at(endMS), time.Duration(endMS-startMS)*time.Millisecond),
		}
	}

	var evs []telemetry.Event
	evs = append(evs, span(1, 0, "run", 0, 100, map[string]string{
		"questions": "3", "rounds": "1", "p1_removed": "4", "p2_removed": "2", "p3_removed": "1"})...)
	evs = append(evs, span(2, 1, "qgen", 1, 3, nil)...)
	evs = append(evs, span(3, 1, "round", 5, 85, map[string]string{"round": "1"})...)
	evs = append(evs, span(4, 3, "round_submit", 5, 10, nil)...)
	evs = append(evs, span(5, 3, "round_wait", 12, 84, nil)...)
	evs = append(evs, span(6, 5, "lease_wait", 13, 30, map[string]string{"a": "0", "b": "1", "attr": "0"})...)
	evs = append(evs, span(7, 5, "judgment", 30, 75, map[string]string{"a": "0", "b": "1", "attr": "0"})...)
	return evs
}

func TestBuildTracesTree(t *testing.T) {
	traces := buildTraces(syntheticEvents(t))
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if len(tr.roots) != 1 || tr.roots[0].Name != "run" {
		t.Fatalf("roots = %+v, want single run root", tr.roots)
	}
	run := tr.roots[0]
	if run.Duration() != 100*time.Millisecond {
		t.Errorf("run duration = %v, want 100ms", run.Duration())
	}
	var names []string
	for _, c := range run.children {
		names = append(names, c.Name)
	}
	if strings.Join(names, ",") != "qgen,round" {
		t.Errorf("run children = %v, want [qgen round]", names)
	}
	if tr.unfinished() != 0 {
		t.Errorf("unfinished = %d, want 0", tr.unfinished())
	}
}

func TestCriticalPathAndPhases(t *testing.T) {
	traces := buildTraces(syntheticEvents(t))
	run := traces[0].roots[0]
	path := criticalPath(run)
	var names []string
	for _, s := range path {
		names = append(names, s.Name)
	}
	want := "run,qgen,round,round_submit,round_wait,lease_wait,judgment"
	if strings.Join(names, ",") != want {
		t.Fatalf("critical path = %v, want %s", names, want)
	}
	self := selfTimes(path)
	if self[path[0]] == 0 {
		t.Error("run must have nonzero self time (the gaps between children)")
	}
	phases := phaseAttribution(run)
	// lease_wait (17ms) + judgment (45ms) + round_wait self (72-62=10ms)
	if phases["crowd-wait"] < 70*time.Millisecond {
		t.Errorf("crowd-wait = %v, want >= 70ms", phases["crowd-wait"])
	}
	if phases["compute"] != 2*time.Millisecond {
		t.Errorf("compute = %v, want 2ms (the qgen span)", phases["compute"])
	}
	var total time.Duration
	for _, d := range phases {
		total += d
	}
	if total != run.Duration() {
		t.Errorf("phase times sum to %v, want the run duration %v", total, run.Duration())
	}
}

func TestTopQuestions(t *testing.T) {
	traces := buildTraces(syntheticEvents(t))
	top := topQuestions(traces[0], 5)
	if len(top) != 1 {
		t.Fatalf("got %d questions, want 1", len(top))
	}
	q := top[0]
	if q.LeaseWait != 17*time.Millisecond || q.Judgment != 45*time.Millisecond || q.Assignments != 1 {
		t.Errorf("question stat = %+v", q)
	}
}

func TestAnalyzeTraceOutput(t *testing.T) {
	traces := buildTraces(syntheticEvents(t))
	var sb strings.Builder
	analyzeTrace(&sb, traces[0], true, 3)
	out := sb.String()
	for _, want := range []string{
		"run", "critical path", "phase attribution", "crowd-wait",
		"slowest questions", "0 vs 1 (attr 0)",
		"pruning: questions=3 rounds=1 p1_removed=4 p2_removed=2 p3_removed=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// A torn stream (span_end without span_start) must still produce a span
// anchored by its duration rather than being dropped.
func TestBuildTracesTornStart(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	sc := telemetry.SpanContext{TraceID: strings.Repeat("cd", 16), SpanID: strings.Repeat("e", 16)}
	evs := []telemetry.Event{
		telemetry.SpanEnd(sc, "round", nil, base.Add(50*time.Millisecond), 40*time.Millisecond),
	}
	traces := buildTraces(evs)
	if len(traces) != 1 || len(traces[0].roots) != 1 {
		t.Fatalf("traces = %+v", traces)
	}
	s := traces[0].roots[0]
	if s.Duration() != 40*time.Millisecond {
		t.Errorf("duration = %v, want 40ms reconstructed from duration_ms", s.Duration())
	}
}

// Two runs merged into one stream each print the pruning line of their
// own run span, under their own waterfall.
func TestPruningLinePerRun(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	run := func(tid byte, startMS int, attrs map[string]string) []telemetry.Event {
		sc := telemetry.SpanContext{TraceID: strings.Repeat(string([]byte{tid}), 32), SpanID: strings.Repeat("a", 16)}
		start := base.Add(time.Duration(startMS) * time.Millisecond)
		return []telemetry.Event{
			telemetry.SpanStart(sc, "", "run", start),
			telemetry.SpanEnd(sc, "run", attrs, start.Add(10*time.Millisecond), 10*time.Millisecond),
		}
	}
	evs := append(run('1', 0, map[string]string{"questions": "12", "rounds": "6", "p1_removed": "8", "p2_removed": "6", "p3_removed": "4"}),
		run('2', 50, map[string]string{"questions": "30", "rounds": "15", "p1_removed": "46", "p2_removed": "44", "p3_removed": "2"})...)
	var sb strings.Builder
	for _, tr := range buildTraces(evs) {
		analyzeTrace(&sb, tr, false, 0)
	}
	out := sb.String()
	first := strings.Index(out, "pruning: questions=12 rounds=6 p1_removed=8 p2_removed=6 p3_removed=4")
	second := strings.Index(out, "pruning: questions=30 rounds=15 p1_removed=46 p2_removed=44 p3_removed=2")
	boundary := strings.Index(out, "trace "+strings.Repeat("2", 32))
	if first < 0 || second < 0 || boundary < 0 || !(first < boundary && boundary < second) {
		t.Errorf("each run must print its own pruning line under its own trace:\n%s", out)
	}
	if n := strings.Count(out, "pruning:"); n != 2 {
		t.Errorf("%d pruning lines, want 2:\n%s", n, out)
	}
}
