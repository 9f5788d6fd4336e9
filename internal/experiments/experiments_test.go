package experiments

import (
	"bytes"
	"strings"
	"testing"

	"crowdsky/internal/core"
	"crowdsky/internal/dataset"
	"crowdsky/internal/skyline"
	"crowdsky/internal/voting"
)

// tinyCfg keeps unit tests fast: one run at 1% of paper scale.
func tinyCfg() Config { return Config{Runs: 1, Seed: 1, Scale: 0.01} }

func findSeries(t *testing.T, fig *Figure, name string) Series {
	t.Helper()
	for _, s := range fig.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("figure %s has no series %q", fig.ID, name)
	return Series{}
}

func TestFig6Shape(t *testing.T) {
	fig, err := Fig6(tinyCfg(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 5 {
		t.Fatalf("series count = %d, want 5", len(fig.Series))
	}
	base := findSeries(t, fig, "Baseline")
	full := findSeries(t, fig, "P1+P2+P3")
	for i := range base.Y {
		if full.Y[i] >= base.Y[i] {
			t.Errorf("point %d: full pruning %.0f >= baseline %.0f questions", i, full.Y[i], base.Y[i])
		}
	}
	// Questions grow with cardinality for every method.
	for _, s := range fig.Series {
		if s.Y[len(s.Y)-1] <= s.Y[0] {
			t.Errorf("%s: questions did not grow with cardinality: %v", s.Name, s.Y)
		}
	}
}

func TestFig6Variants(t *testing.T) {
	for _, v := range []string{"b", "c"} {
		fig, err := Fig6(tinyCfg(), v)
		if err != nil {
			t.Fatal(err)
		}
		if len(fig.Series) != 5 || len(fig.Series[0].Y) == 0 {
			t.Errorf("variant %s malformed", v)
		}
	}
	if _, err := Fig6(tinyCfg(), "z"); err == nil {
		t.Errorf("bad variant accepted")
	}
}

func TestFig7QuestionsRiseWithCrowdDims(t *testing.T) {
	fig, err := Fig7(tinyCfg(), "c")
	if err != nil {
		t.Fatal(err)
	}
	// Figures 6c/7c: questions increase with |AC| for all methods.
	for _, s := range fig.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Errorf("%s: questions fell from %.0f to %.0f as |AC| grew", s.Name, s.Y[i-1], s.Y[i])
			}
		}
	}
}

func TestFig8Shape(t *testing.T) {
	for _, panel := range []string{"a", "b"} {
		fig, err := Fig8(tinyCfg(), panel)
		if err != nil {
			t.Fatal(err)
		}
		serial := findSeries(t, fig, "Serial")
		pd := findSeries(t, fig, "ParallelDSet")
		psl := findSeries(t, fig, "ParallelSL")
		for i := range serial.Y {
			if pd.Y[i] > serial.Y[i] {
				t.Errorf("panel %s point %d: ParallelDSet %.0f > Serial %.0f rounds", panel, i, pd.Y[i], serial.Y[i])
			}
			if psl.Y[i] > pd.Y[i] {
				t.Errorf("panel %s point %d: ParallelSL %.0f > ParallelDSet %.0f rounds", panel, i, psl.Y[i], pd.Y[i])
			}
		}
	}
	if _, err := Fig8(tinyCfg(), "q"); err == nil {
		t.Errorf("bad panel accepted")
	}
}

func TestFig9Shape(t *testing.T) {
	fig, err := Fig9(tinyCfg(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 || len(fig.Series[0].Y) != 4 {
		t.Fatalf("figure 9 malformed: %+v", fig)
	}
}

func TestFig10DynamicBeatsStaticOnAverage(t *testing.T) {
	cfg := Config{Runs: 3, Seed: 7, Scale: 0.25}
	recFig, err := Fig10(cfg, "b")
	if err != nil {
		t.Fatal(err)
	}
	sum := func(s Series) float64 {
		total := 0.0
		for _, v := range s.Y {
			total += v
		}
		return total
	}
	staticRec := sum(findSeries(t, recFig, "StaticVoting"))
	dynamicRec := sum(findSeries(t, recFig, "DynamicVoting"))
	smartRec := sum(findSeries(t, recFig, "SmartVoting"))
	// Figure 10 recall ordering: dynamic and smart beat static on average.
	if dynamicRec < staticRec {
		t.Errorf("dynamic voting average recall %.3f below static %.3f", dynamicRec, staticRec)
	}
	if smartRec < staticRec {
		t.Errorf("smart voting average recall %.3f below static %.3f", smartRec, staticRec)
	}
	precFig, err := Fig10(cfg, "a")
	if err != nil {
		t.Fatal(err)
	}
	staticPrec := sum(findSeries(t, precFig, "StaticVoting"))
	smartPrec := sum(findSeries(t, precFig, "SmartVoting"))
	// SmartVoting also holds precision (small tolerance at reduced scale).
	if smartPrec < staticPrec-0.05*float64(len(precFig.Series[0].Y)) {
		t.Errorf("smart voting average precision %.3f well below static %.3f", smartPrec, staticPrec)
	}
}

func TestFig11Ordering(t *testing.T) {
	cfg := Config{Runs: 3, Seed: 3, Scale: 0.25}
	fig, err := Fig11(cfg, "a")
	if err != nil {
		t.Fatal(err)
	}
	base := findSeries(t, fig, "Baseline")
	unary := findSeries(t, fig, "Unary")
	cs := findSeries(t, fig, "CrowdSky")
	var bs, us, css float64
	for i := range base.Y {
		bs += base.Y[i]
		us += unary.Y[i]
		css += cs.Y[i]
	}
	// Figure 11 ordering on average: CrowdSky > Unary > Baseline (small
	// tolerance between the top two at this reduced scale).
	if css < us-0.05*float64(len(base.Y)) || us < bs {
		t.Errorf("precision ordering violated: baseline %.3f, unary %.3f, crowdsky %.3f", bs, us, css)
	}
}

func TestFig12CostAndRounds(t *testing.T) {
	cfg := Config{Runs: 1, Seed: 5}
	costFig, err := Fig12(cfg, "a")
	if err != nil {
		t.Fatal(err)
	}
	base := findSeries(t, costFig, "Baseline")
	cs := findSeries(t, costFig, "CrowdSky")
	for i := range base.Y {
		if cs.Y[i] >= base.Y[i] {
			t.Errorf("Q%d: CrowdSky cost $%.2f >= baseline $%.2f", i+1, cs.Y[i], base.Y[i])
		}
	}
	roundsFig, err := Fig12(cfg, "b")
	if err != nil {
		t.Fatal(err)
	}
	rb := findSeries(t, roundsFig, "Baseline")
	psl := findSeries(t, roundsFig, "ParallelSL")
	for i := range rb.Y {
		if psl.Y[i] >= rb.Y[i] {
			t.Errorf("Q%d: ParallelSL rounds %.0f >= baseline %.0f", i+1, psl.Y[i], rb.Y[i])
		}
	}
	if _, err := Fig12(cfg, "x"); err == nil {
		t.Errorf("bad panel accepted")
	}
}

func TestRealAccuracyQ1Perfectible(t *testing.T) {
	results, err := RealAccuracy(Config{Runs: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	// Q1's crowd attribute has exact ground truth on a total chain; with
	// majority voting the paper reports precision = recall = 1.0.
	q1 := results[0]
	if q1.Precision < 0.99 || q1.Recall < 0.99 {
		t.Errorf("Q1 accuracy = %.2f/%.2f, want 1.0/1.0", q1.Precision, q1.Recall)
	}
	// Q3's skyline should be the Cy Young candidates most of the time.
	q3 := results[2]
	found := 0
	for _, name := range q3.Skyline {
		switch name {
		case "Clayton Kershaw", "Max Scherzer", "Yu Darvish", "Bartolo Colon":
			found++
		}
	}
	if found < 3 {
		t.Errorf("Q3 skyline %v misses the Cy Young candidates", q3.Skyline)
	}
}

func TestTablesRender(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderTable1(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Σ|DS(t)| = 26") {
		t.Errorf("table 1 total missing:\n%s", buf.String())
	}
	buf.Reset()
	if err := RenderTable2(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "12 questions") {
		t.Errorf("table 2 question count missing:\n%s", buf.String())
	}
	buf.Reset()
	if err := RenderTable3(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "12 questions in 6 rounds") {
		t.Errorf("table 3 summary missing:\n%s", buf.String())
	}
}

func TestRegistryRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep is slow; skipped with -short")
	}
	cfg := tinyCfg()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Registry[id](cfg, &buf); err != nil {
				t.Fatalf("runner %s: %v", id, err)
			}
			if buf.Len() == 0 {
				t.Errorf("runner %s produced no output", id)
			}
		})
	}
	if len(IDs()) != len(Registry) {
		t.Errorf("IDs() incomplete")
	}
}

func TestFigureRender(t *testing.T) {
	fig := &Figure{
		ID: "x", Title: "test", XLabel: "n", YLabel: "y",
		Series: []Series{{Name: "m", X: []float64{1, 2}, Y: []float64{3.5, 4}}},
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure x", "3.5", "m"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSanityCheckHelper(t *testing.T) {
	gen := dataset.GenerateConfig{N: 30, KnownDims: 2, CrowdDims: 1, Distribution: dataset.Independent}
	if err := sanitySkylineCheck(gen, 1); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicPolicySpread(t *testing.T) {
	d := dataset.Toy()
	p := DynamicPolicy(d, 5)
	pp, ok := p.(voting.ProgressPolicy)
	if !ok {
		t.Fatalf("dynamic policy is not progress-aware")
	}
	if pp.WorkersAt(0.1, 0) <= pp.WorkersAt(0.9, 0) {
		t.Errorf("dynamic policy does not favor early questions")
	}
	var sp voting.Policy = core.SmartVoting(skyline.NewIndex(d), 5)
	cp, ok := sp.(voting.ContextPolicy)
	if !ok {
		t.Fatalf("smart policy is not context-aware")
	}
	last := cp.WorkersFor(voting.Context{Progress: 0.5, Freq: 0, Backup: 0})
	backed := cp.WorkersFor(voting.Context{Progress: 0.5, Freq: 0, Backup: 2})
	if backed >= last {
		t.Errorf("smart policy does not discount recoverable checks: %d vs %d", backed, last)
	}
}
