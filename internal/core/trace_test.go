package core

import (
	"math/rand"
	"strconv"
	"testing"

	"crowdsky/internal/dataset"
	"crowdsky/internal/skyline"
	"crowdsky/internal/telemetry"
	"crowdsky/internal/voting"
)

// runSpanOf returns the single run span_end of a traced run.
func runSpanOf(t *testing.T, tr *telemetry.Collector) telemetry.Event {
	t.Helper()
	var runs []telemetry.Event
	for _, e := range tr.ByType(telemetry.EventSpanEnd) {
		if e.Name == "run" {
			runs = append(runs, e)
		}
	}
	if len(runs) != 1 {
		t.Fatalf("%d run spans, want 1", len(runs))
	}
	return runs[0]
}

// attrInt parses the integer attribute key of a span_end event.
func attrInt(t *testing.T, e telemetry.Event, key string) int {
	t.Helper()
	v, err := strconv.Atoi(e.Attrs[key])
	if err != nil {
		t.Fatalf("%s span attribute %s=%q: %v", e.Name, key, e.Attrs[key], err)
	}
	return v
}

// TestTraceEventsOnToyDataset runs the full CrowdSky configuration on the
// paper's running example (Table 1) and checks that the span tree alone
// carries the run's accounting: nothing but span events, framed by the
// run span, a run span whose attributes equal the Result, one round span
// per round, and P1/P2 span removals that add up to the run totals (the
// toy dataset exercises both, per Examples 4-5). The sums must hold on
// every schedule, on the toy data and on n = 300 IND data, including the
// reductions ByDominatingSets makes while batching.
func TestTraceEventsOnToyDataset(t *testing.T) {
	d := dataset.Toy()
	var tr telemetry.Collector
	opts := AllPruning()
	opts.Tracer = &tr
	res := Run(d, perfect(d), opts)

	events := tr.Events()
	for _, e := range events {
		if e.Type != telemetry.EventSpanStart && e.Type != telemetry.EventSpanEnd {
			t.Fatalf("non-span event in the trace: %+v", e)
		}
	}
	if first, last := events[0], events[len(events)-1]; first.Type != telemetry.EventSpanStart || first.Name != "run" ||
		last.Type != telemetry.EventSpanEnd || last.Name != "run" {
		t.Errorf("trace not framed by the run span: first %s %s, last %s %s", first.Type, first.Name, last.Type, last.Name)
	}

	run := runSpanOf(t, &tr)
	if run.Attrs["algo"] != "serial" {
		t.Errorf("run algo = %q", run.Attrs["algo"])
	}
	for key, want := range map[string]int{
		"n": d.N(), "crowd_dims": d.CrowdDims(),
		"questions": res.Questions, "rounds": res.Rounds, "skyline": len(res.Skyline),
	} {
		if got := attrInt(t, run, key); got != want {
			t.Errorf("run %s = %d, want %d", key, got, want)
		}
	}
	if _, ok := run.Attrs["truncated"]; ok {
		t.Error("untruncated run carries a truncated attribute")
	}

	phases := map[string]int{}
	for _, e := range tr.ByType(telemetry.EventSpanEnd) {
		switch e.Name {
		case "round", "index_build":
			phases[e.Name]++
		}
	}
	if phases["round"] != res.Rounds {
		t.Errorf("%d round spans, want one per round (%d)", phases["round"], res.Rounds)
	}
	if phases["index_build"] != 1 {
		t.Errorf("%d index_build spans, want 1", phases["index_build"])
	}

	for name, d := range map[string]*dataset.Dataset{
		"toy": d, "IND-300": randomDataset(3, 300, 3, 2, dataset.Independent),
	} {
		for s := range Schedule(len(schedules)) {
			t.Run(name+"/"+s.String(), func(t *testing.T) {
				var tr telemetry.Collector
				opts := scheduled(s)
				opts.Tracer = &tr
				Run(d, perfect(d), opts)
				removed := map[string]int{}
				for _, e := range tr.ByType(telemetry.EventSpanEnd) {
					if e.Name == "p1" || e.Name == "p2" {
						removed[e.Name+"_removed"] += attrInt(t, e, "removed")
					}
				}
				run := runSpanOf(t, &tr)
				for _, key := range []string{"p1_removed", "p2_removed"} {
					if removed[key] < 1 || removed[key] != attrInt(t, run, key) {
						t.Errorf("%s spans sum to %d, run span says %s; want equal and > 0", key, removed[key], run.Attrs[key])
					}
				}
			})
		}
	}
}

// TestTraceP3AndParallel pins the run-span pruning totals on the toy
// dataset for each schedule. The expected values are the removal sums and
// escalation counts that the earlier per-prune and per-escalation trace
// events reported on the same runs, so moving them onto the run span lost
// nothing.
func TestTraceP3AndParallel(t *testing.T) {
	escalations := [...]int{Serial: 3, ByDominatingSets: 4, BySkylineLayers: 4}
	for s := range Schedule(len(schedules)) {
		t.Run(s.String(), func(t *testing.T) {
			d := dataset.Toy()
			var tr telemetry.Collector
			opts := scheduled(s)
			opts.Tracer = &tr
			opts.Voting = voting.NewAnnealed(5)
			Run(d, perfect(d), opts)
			run := runSpanOf(t, &tr)
			if run.Attrs["algo"] != s.String() {
				t.Errorf("run algo = %q, want %q", run.Attrs["algo"], s.String())
			}
			for key, want := range map[string]int{
				"p1_removed": 8, "p2_removed": 6, "p3_removed": 4, "vote_escalations": escalations[s],
			} {
				if got := attrInt(t, run, key); got != want {
					t.Errorf("run %s = %d, want %d", key, got, want)
				}
			}
		})
	}
}

// TestTraceBudgetTruncation: exhausting MaxQuestions marks the run span
// truncated and names the cap.
func TestTraceBudgetTruncation(t *testing.T) {
	d := dataset.Toy()
	var tr telemetry.Collector
	opts := AllPruning()
	opts.Tracer = &tr
	opts.MaxQuestions = 5
	res := Run(d, perfect(d), opts)
	if !res.Truncated {
		t.Fatal("budget of 5 not exhausted on the toy dataset")
	}
	run := runSpanOf(t, &tr)
	if run.Attrs["truncated"] != "true" || attrInt(t, run, "budget") != 5 || attrInt(t, run, "questions") < 5 {
		t.Errorf("run span attrs = %v, want truncated=true budget=5 questions>=5", run.Attrs)
	}
}

// TestTraceVoteEscalation: the annealed policy assigns omega+2 workers to
// early questions, which the run span counts; smart voting escalates early
// and high-frequency questions, a pinned count on the toy dataset; static
// voting never escalates.
func TestTraceVoteEscalation(t *testing.T) {
	d := dataset.Toy()
	escalations := func(policy voting.Policy) string {
		var tr telemetry.Collector
		opts := AllPruning()
		opts.Tracer = &tr
		opts.Voting = policy
		Run(d, perfect(d), opts)
		return runSpanOf(t, &tr).Attrs["vote_escalations"]
	}
	if n, _ := strconv.Atoi(escalations(voting.NewAnnealed(5))); n == 0 {
		t.Error("annealed voting produced no vote escalations")
	}
	if got := escalations(SmartVoting(skyline.NewIndex(d), 5)); got != "3" {
		t.Errorf("smart voting escalated %s times, want 3", got)
	}
	if got := escalations(voting.Static{Omega: 5}); got != "" && got != "0" {
		t.Errorf("static voting escalated %s times", got)
	}
}

// benchDataset builds a deterministic 100-tuple synthetic instance large
// enough that the emission guards run thousands of times per operation.
func benchDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	d, err := dataset.Generate(dataset.GenerateConfig{
		N: 100, KnownDims: 2, CrowdDims: 1, Distribution: dataset.Independent,
	}, rand.New(rand.NewSource(42)))
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkCrowdSkyNoTrace is the baseline: Options.Tracer nil, every
// emission site reduced to a pointer comparison. Compare against
// BenchmarkCrowdSkyTraced to measure tracing overhead.
func BenchmarkCrowdSkyNoTrace(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(d, perfect(d), AllPruning())
	}
}

// BenchmarkCrowdSkyTraced runs the same workload with an in-memory
// collector attached.
func BenchmarkCrowdSkyTraced(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var tr telemetry.Collector
		opts := AllPruning()
		opts.Tracer = &tr
		Run(d, perfect(d), opts)
	}
}
