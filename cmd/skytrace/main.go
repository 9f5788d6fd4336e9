// Command skytrace analyzes span traces produced by `crowdsky -trace`,
// `crowdserved -trace` and `experiments -trace`: it pairs the
// span_start/span_end events in one or more JSONL files (requester and
// marketplace traces merge by trace ID), renders a latency waterfall per
// run, extracts the critical path that bounds wall-clock, attributes
// trace time to phases (crowd-wait vs. compute vs. voting vs. RPC), and
// ranks the slowest questions.
//
// Usage:
//
//	skytrace run.jsonl                    # waterfall + phase table
//	skytrace -critical-path run.jsonl     # also print the critical path
//	skytrace -top 10 run.jsonl srv.jsonl  # slowest questions, both sides
//
// The paper's latency model is round-structured (Section 4): wall-clock
// is crowd rounds, not machine compute. skytrace makes that decomposition
// visible for a real deployment: a slow run attributes to queue wait
// (lease_wait), worker think time (judgment), voting escalation, or the
// machine part (index_build/question generation).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"crowdsky/internal/telemetry"
)

func main() {
	criticalFlag := flag.Bool("critical-path", false, "print the critical path of each run")
	topFlag := flag.Int("top", 0, "print the N slowest questions by crowd time")
	traceFlag := flag.String("trace-id", "", "only analyze the given trace ID")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: skytrace [flags] trace.jsonl [more.jsonl...]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Analyzes crowdsky span traces; merge requester and server files by listing both.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	var events []telemetry.Event
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatalf("%v", err)
		}
		evs, err := telemetry.ReadEvents(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatalf("%s: %v", path, err)
		}
		events = append(events, evs...)
	}

	traces := buildTraces(events)
	if *traceFlag != "" {
		var keep []*trace
		for _, tr := range traces {
			if tr.id == *traceFlag {
				keep = append(keep, tr)
			}
		}
		traces = keep
	}
	if len(traces) == 0 {
		fatalf("no spans found (was the trace recorded with span support?)")
	}

	out := os.Stdout
	for _, tr := range traces {
		analyzeTrace(out, tr, *criticalFlag, *topFlag)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "skytrace: "+format+"\n", args...)
	os.Exit(1)
}

// analyzeTrace prints every report for one trace.
func analyzeTrace(w io.Writer, tr *trace, critical bool, top int) {
	fmt.Fprintf(w, "trace %s  (%d spans", tr.id, len(tr.spans))
	if n := tr.unfinished(); n > 0 {
		fmt.Fprintf(w, ", %d unfinished", n)
	}
	fmt.Fprintln(w, ")")
	for _, root := range tr.roots {
		fmt.Fprintln(w)
		renderWaterfall(w, root)
		if root.Name == "run" {
			renderPruning(w, root)
		}
		if critical {
			fmt.Fprintln(w)
			renderCriticalPath(w, root)
		}
		fmt.Fprintln(w)
		renderPhases(w, root)
	}
	if top > 0 {
		fmt.Fprintln(w)
		renderTop(w, tr, top)
	}
	fmt.Fprintln(w)
}

// renderPruning prints the run's question accounting from its own span
// attributes: questions asked, rounds, and the dominating-set members
// each pruning method (P1/P2/P3) removed — the paper's pruning
// decomposition, read live.
func renderPruning(w io.Writer, run *spanRec) {
	var parts []string
	for _, k := range []string{"questions", "rounds", "p1_removed", "p2_removed", "p3_removed"} {
		if v, ok := run.Attrs[k]; ok {
			parts = append(parts, k+"="+v)
		}
	}
	if len(parts) > 0 {
		fmt.Fprintf(w, "  pruning: %s\n", strings.Join(parts, " "))
	}
}

// spanRec is one reconstructed span: a paired span_start/span_end, or an
// unfinished span_start (End zero, duration zero).
type spanRec struct {
	TraceID  string
	SpanID   string
	ParentID string
	Name     string
	Start    time.Time
	End      time.Time
	Attrs    map[string]string
	Finished bool

	children []*spanRec
}

// Duration is the span's wall time (zero for unfinished spans).
func (s *spanRec) Duration() time.Duration {
	if !s.Finished {
		return 0
	}
	return s.End.Sub(s.Start)
}

// trace is every span sharing one trace ID, organized as a forest.
type trace struct {
	id    string
	spans map[string]*spanRec
	roots []*spanRec
}

func (tr *trace) unfinished() int {
	n := 0
	for _, s := range tr.spans {
		if !s.Finished {
			n++
		}
	}
	return n
}

// buildTraces pairs span events and assembles one forest per trace ID,
// ordered by first span start. Spans whose parent is missing from the
// stream (e.g. only the server's file was given) become roots.
func buildTraces(events []telemetry.Event) []*trace {
	byTrace := make(map[string]*trace)
	var order []string
	for i := range events {
		e := &events[i]
		if e.Type != telemetry.EventSpanStart && e.Type != telemetry.EventSpanEnd {
			continue
		}
		tr := byTrace[e.TraceID]
		if tr == nil {
			tr = &trace{id: e.TraceID, spans: make(map[string]*spanRec)}
			byTrace[e.TraceID] = tr
			order = append(order, e.TraceID)
		}
		s := tr.spans[e.SpanID]
		if s == nil {
			s = &spanRec{TraceID: e.TraceID, SpanID: e.SpanID}
			tr.spans[e.SpanID] = s
		}
		switch e.Type {
		case telemetry.EventSpanStart:
			s.Name, s.ParentID, s.Start = e.Name, e.ParentID, e.Time
		case telemetry.EventSpanEnd:
			s.End, s.Finished = e.Time, true
			if s.Name == "" {
				s.Name = e.Name
			}
			if len(e.Attrs) > 0 {
				s.Attrs = e.Attrs
			}
			if s.Start.IsZero() {
				// span_end without its span_start (torn stream): anchor
				// the span at its end minus the recorded duration.
				s.Start = e.Time.Add(-time.Duration(e.DurationMS * float64(time.Millisecond)))
			}
		}
	}
	var out []*trace
	for _, id := range order {
		tr := byTrace[id]
		for _, s := range tr.spans {
			if p, ok := tr.spans[s.ParentID]; ok && s.ParentID != "" {
				p.children = append(p.children, s)
			} else {
				tr.roots = append(tr.roots, s)
			}
		}
		for _, s := range tr.spans {
			sortSpans(s.children)
		}
		sortSpans(tr.roots)
		out = append(out, tr)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return firstStart(out[i]).Before(firstStart(out[j]))
	})
	return out
}

func firstStart(tr *trace) time.Time {
	if len(tr.roots) == 0 {
		return time.Time{}
	}
	return tr.roots[0].Start
}

// sortSpans orders spans by start time, span ID as the deterministic
// tie-break.
func sortSpans(spans []*spanRec) {
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].SpanID < spans[j].SpanID
	})
}

// renderWaterfall prints the span tree with per-span offset bars scaled
// to the root's duration.
func renderWaterfall(w io.Writer, root *spanRec) {
	const barWidth = 32
	total := root.Duration()
	var walk func(s *spanRec, depth int)
	walk = func(s *spanRec, depth int) {
		bar := waterfallBar(s, root, barWidth, total)
		label := strings.Repeat("  ", depth) + s.Name
		state := ""
		if !s.Finished {
			state = "  (unfinished)"
		}
		fmt.Fprintf(w, "  %-32s %10s  |%s|%s%s\n", clip(label, 32), fmtDur(s.Duration()), bar, spanDetail(s), state)
		for _, c := range s.children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
}

// waterfallBar renders one span's position within the root's interval.
func waterfallBar(s, root *spanRec, width int, total time.Duration) string {
	if total <= 0 {
		return strings.Repeat(" ", width)
	}
	frac := func(t time.Time) int {
		f := float64(t.Sub(root.Start)) / float64(total)
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		return int(f * float64(width))
	}
	lo, hi := frac(s.Start), frac(s.End)
	if !s.Finished {
		hi = lo
	}
	if hi <= lo {
		hi = lo + 1
	}
	if hi > width {
		hi = width
	}
	return strings.Repeat(" ", lo) + strings.Repeat("█", hi-lo) + strings.Repeat(" ", width-hi)
}

// spanDetail picks the interesting attrs for the waterfall line.
func spanDetail(s *spanRec) string {
	keys := []string{"algo", "round", "questions", "worker", "a", "b", "polls", "requeued"}
	var parts []string
	for _, k := range keys {
		if v, ok := s.Attrs[k]; ok {
			parts = append(parts, k+"="+v)
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return "  " + strings.Join(parts, " ")
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func fmtDur(d time.Duration) string {
	return d.Round(10 * time.Microsecond).String()
}

// criticalPath returns the chain of spans that bounds the root's
// wall-clock: starting from the root's end, repeatedly step to the child
// covering the latest time not yet accounted for, then recurse into it.
// Spans that extend past their parent (cross-process children whose
// lifetime outlives the request that created them) are not followed.
func criticalPath(root *spanRec) []*spanRec {
	var path []*spanRec
	var walk func(s *spanRec)
	walk = func(s *spanRec) {
		path = append(path, s)
		cursor := s.End
		kids := append([]*spanRec(nil), s.children...)
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].End.After(kids[j].End) })
		var chain []*spanRec
		for _, k := range kids {
			if !k.Finished || k.End.After(cursor) || !k.Start.Before(cursor) {
				continue
			}
			chain = append(chain, k)
			cursor = k.Start
		}
		// chain was collected latest-first; replay it in time order.
		for i := len(chain) - 1; i >= 0; i-- {
			walk(chain[i])
		}
	}
	walk(root)
	return path
}

// selfTimes returns, for each span on the critical path, the share of its
// duration not covered by its own on-path children — the time the trace
// actually attributes to that span.
func selfTimes(path []*spanRec) map[*spanRec]time.Duration {
	onPath := make(map[*spanRec]bool, len(path))
	for _, s := range path {
		onPath[s] = true
	}
	out := make(map[*spanRec]time.Duration, len(path))
	for _, s := range path {
		covered := time.Duration(0)
		for _, c := range s.children {
			if onPath[c] {
				covered += c.Duration()
			}
		}
		self := s.Duration() - covered
		if self < 0 {
			self = 0
		}
		out[s] = self
	}
	return out
}

// renderCriticalPath prints the chain with per-span self time.
func renderCriticalPath(w io.Writer, root *spanRec) {
	path := criticalPath(root)
	self := selfTimes(path)
	fmt.Fprintf(w, "  critical path (%d spans, %s total):\n", len(path), fmtDur(root.Duration()))
	for _, s := range path {
		fmt.Fprintf(w, "    %-28s self %10s  of %10s%s\n", clip(s.Name, 28), fmtDur(self[s]), fmtDur(s.Duration()), spanDetail(s))
	}
}

// phase buckets for attribution. Every span name maps to one phase;
// unknown names count as "other" so new instrumentation is never silently
// dropped.
func phaseOf(name string) string {
	switch name {
	case "lease_wait", "judgment", "round_wait":
		return "crowd-wait"
	case "vote_resolve":
		return "voting"
	case "index_build", "batch_group", "qgen", "p1", "p2", "p3_order":
		return "compute"
	case "round_submit", "server_round":
		return "rpc"
	case "run", "round", "experiment":
		return "orchestration"
	default:
		if strings.HasPrefix(name, "http ") {
			return "rpc"
		}
		return "other"
	}
}

var phaseOrder = []string{"crowd-wait", "voting", "compute", "rpc", "orchestration", "other"}

// phaseAttribution sums critical-path self time per phase.
func phaseAttribution(root *spanRec) map[string]time.Duration {
	path := criticalPath(root)
	self := selfTimes(path)
	out := make(map[string]time.Duration)
	for _, s := range path {
		out[phaseOf(s.Name)] += self[s]
	}
	return out
}

// renderPhases prints the attribution table for one root span.
func renderPhases(w io.Writer, root *spanRec) {
	phases := phaseAttribution(root)
	total := root.Duration()
	fmt.Fprintf(w, "  phase attribution (critical-path time):\n")
	for _, p := range phaseOrder {
		d, ok := phases[p]
		if !ok || d == 0 {
			continue
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(d) / float64(total)
		}
		fmt.Fprintf(w, "    %-14s %10s  %5.1f%%\n", p, fmtDur(d), pct)
	}
}

// questionStat aggregates the crowd time of one question across its
// assignments (lease waits + judgments, including requeued attempts).
type questionStat struct {
	Key         string // "a vs b (attr k)"
	LeaseWait   time.Duration
	Judgment    time.Duration
	Assignments int
}

func (q questionStat) total() time.Duration { return q.LeaseWait + q.Judgment }

// topQuestions ranks questions by total crowd time, slowest first.
func topQuestions(tr *trace, n int) []questionStat {
	agg := make(map[string]*questionStat)
	var order []string
	for _, s := range tr.spans {
		if s.Name != "lease_wait" && s.Name != "judgment" {
			continue
		}
		a, b, attr := s.Attrs["a"], s.Attrs["b"], s.Attrs["attr"]
		if a == "" || b == "" {
			continue
		}
		key := fmt.Sprintf("%s vs %s (attr %s)", a, b, attr)
		q := agg[key]
		if q == nil {
			q = &questionStat{Key: key}
			agg[key] = q
			order = append(order, key)
		}
		switch s.Name {
		case "lease_wait":
			q.LeaseWait += s.Duration()
		case "judgment":
			q.Judgment += s.Duration()
			q.Assignments++
		}
	}
	out := make([]questionStat, 0, len(order))
	for _, k := range order {
		out = append(out, *agg[k])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].total() != out[j].total() {
			return out[i].total() > out[j].total()
		}
		return out[i].Key < out[j].Key
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

func renderTop(w io.Writer, tr *trace, n int) {
	top := topQuestions(tr, n)
	if len(top) == 0 {
		fmt.Fprintf(w, "  no per-question spans (record the server side with crowdserved -trace)\n")
		return
	}
	fmt.Fprintf(w, "  slowest questions (lease wait + judgment):\n")
	for _, q := range top {
		fmt.Fprintf(w, "    %-24s %10s  (wait %s, judge %s, %d judgments)\n",
			clip(q.Key, 24), fmtDur(q.total()), fmtDur(q.LeaseWait), fmtDur(q.Judgment), q.Assignments)
	}
}
