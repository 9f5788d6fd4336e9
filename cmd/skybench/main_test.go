package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"crowdsky"
	"crowdsky/internal/crowd"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesCatalogue holds BENCHMARK.json to its format
// limits and to the workload table and metric catalogue it mirrors.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) < 2 || len(f.Workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(f.Workloads))
	}
	if len(f.EndToEnd) < 1 || len(f.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", len(f.EndToEnd))
	}
	if len(f.PerLayer) < 1 || len(f.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(f.PerLayer))
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", f.RunSeconds)
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !namePattern.MatchString(name) {
			t.Errorf("name %q does not match %s", name, namePattern)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the table %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		unique(w.Name)
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d is %q (%q), the table has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}

	largest := 0.0
	for _, group := range []struct {
		layer bool
		ms    []declared
	}{{false, f.EndToEnd}, {true, f.PerLayer}} {
		var listed []string
		for _, m := range catalogue {
			if m.listed() && m.layer == group.layer {
				listed = append(listed, m.name)
			}
		}
		if len(listed) != len(group.ms) {
			t.Errorf("layer=%v: BENCHMARK.json declares %d metrics, the catalogue lists %d", group.layer, len(group.ms), len(listed))
		}
		for _, d := range group.ms {
			unique(d.Name)
			if !unitPattern.MatchString(d.Unit) {
				t.Errorf("%s: unit %q does not match %s", d.Name, d.Unit, unitPattern)
			}
			m, ok := lookup(d.Name)
			switch {
			case !ok || !m.listed() || m.layer != group.layer:
				t.Errorf("%s is declared but not listed in the catalogue as layer=%v", d.Name, group.layer)
				continue
			case m.unit != d.Unit || m.better != d.Better:
				t.Errorf("%s: declared %s/%s, catalogue %s/%s", d.Name, d.Unit, d.Better, m.unit, m.better)
			case m.only != nil:
				t.Errorf("%s is declared but only reported on %v", d.Name, m.only)
			}
			if group.layer {
				if d.Bound != nil {
					t.Errorf("per-layer metric %s has a bound", d.Name)
				}
				continue
			}
			if d.Bound == nil || *d.Bound != m.bound || *d.Bound <= 0 || *d.Bound > 0.25 {
				t.Errorf("%s: bound %v, want the catalogue's %v within (0, 0.25]", d.Name, d.Bound, m.bound)
				continue
			}
			largest = math.Max(largest, *d.Bound)
		}
	}
	if m, _ := lookup("setup_s"); !m.listed() || m.bound != largest || m.unit != "s" || m.better != "lower" {
		t.Errorf("setup_s must be listed, in s, lower-better, with the largest bound %v", largest)
	}
}

// TestQuickRunReportsEveryDeclaredMetric runs every workload at -quick
// size, timed and traced, and checks that the final JSON line carries
// every metric BENCHMARK.json declares, with its unit, and that every
// session passes its gates.
func TestQuickRunReportsEveryDeclaredMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			oc := runWorkload(w, options{seed: 1, quick: true, traced: traced})
			if oc.failed != 0 || oc.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d sessions failed: %v", w.name, traced, oc.failed, oc.attempted, oc.errors)
			}
			line := resultLine(oc, traced)
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result line has %d metrics, BENCHMARK.json declares %d", w.name, traced, len(line.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := line.Metrics[d.Name]
				if !ok || got.Unit != d.Unit || math.IsNaN(got.Value) {
					t.Errorf("%s traced=%v: %s = %+v, want a value in %s", w.name, traced, d.Name, got, d.Unit)
				}
			}
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // reversed, so tail must sort
		}
		return v
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},   // 10 beyond
		{999, 0.99, 990, false},   // 9 beyond
		{200, 0.95, 190, true},    // 10 beyond
		{199, 0.95, 190, false},   // 9 beyond
		{20, 0.5, 10, true},       // 10 beyond the median
		{5, 0.99, 5, false},       // too few for any tail
		{100, 0.9, 90, true},      // 10 beyond
		{1000, 0.999, 999, false}, // 1 beyond
	} {
		got, ok := tail(xs(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("tail(n=%d, p=%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "session", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "crowd.ask", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "crowd.ask", Start: 25, End: 50},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "crowd.ask", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "http.get_round", Start: 12, End: 14},
		{ID: 6, Parent: 2, Name: "http.get_work", Start: 13, End: 20},
		{ID: 7, Parent: 3, Name: "http.get_round", Start: 60, End: 70}, // outside its parent
		{ID: 8, Name: "prefgraph.replay", Start: 200, End: 260},
	}
	want := map[int]int64{
		1: 100 - (50 - 10) - (100 - 90),
		2: 20 - (20 - 12),
		3: 25,
		4: 30,
		5: 2,
		6: 7,
		7: 10,
		8: 60,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
}

// liar answers like its inner platform except that it flips the first
// strict preference it is asked for.
type liar struct {
	crowd.Platform
	lied bool
}

func (l *liar) Ask(reqs []crowd.Request) []crowd.Answer {
	answers := l.Platform.Ask(reqs)
	for i := range answers {
		if !l.lied && answers[i].Pref != crowd.Equal {
			answers[i].Pref = answers[i].Pref.Flip()
			l.lied = true
		}
	}
	return answers
}

func TestLyingPlatformFailsOracleGate(t *testing.T) {
	w, err := findWorkload(wlSerial)
	if err != nil {
		t.Fatal(err)
	}
	d := crowdsky.Toy()
	if s := runSession(w, d, crowdsky.NewPerfectCrowd(d), false); s.err != nil {
		t.Fatalf("honest platform fails the gates: %v", s.err)
	}
	s := runSession(w, d, &liar{Platform: crowdsky.NewPerfectCrowd(d)}, false)
	if s.err == nil || !strings.Contains(s.err.Error(), "oracle") {
		t.Fatalf("a platform that flipped one answer: got %v, want the oracle gate to fail", s.err)
	}
}
