package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"crowdsky/internal/core"
	"crowdsky/internal/dataset"
	"crowdsky/internal/metrics"
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

var updateGolden = flag.Bool("golden.update", false, "print the registry golden table instead of checking it")

// goldenCfg is the configuration the golden table was captured at.
func goldenCfg() Config { return Config{Runs: 2, Seed: 1, Scale: 0.05} }

// goldenOutputs holds, per experiment id, a hash of its text output and,
// for figure ids, of the figure's CSV, at goldenCfg.
// Regenerate with: go test ./internal/experiments -run TestRegistryRunsEverything -golden.update
var goldenOutputs = map[string]string{
	"10a.csv":            "f1ed86a091f3404f",
	"10a.txt":            "d1bdec60ef5d2b1a",
	"10b.csv":            "230d4599edc9fa8e",
	"10b.txt":            "e65a8536fcb42714",
	"11a.csv":            "7bd96eae3d4f2e49",
	"11a.txt":            "37ab1b3ad38af991",
	"11b.csv":            "7a430c7567b98a39",
	"11b.txt":            "8ad8acd71e784cb3",
	"12a.csv":            "1268504dda840c63",
	"12a.txt":            "3057330f21997ced",
	"12b.csv":            "a072df847e67a1a1",
	"12b.txt":            "a97cff9377133407",
	"6a.csv":             "985995c2273c8d2a",
	"6a.txt":             "9c732e2d9fd39504",
	"6b.csv":             "2f2a26d1331877c9",
	"6b.txt":             "8baf8edd19d3307d",
	"6c.csv":             "2965796cd1cada51",
	"6c.txt":             "37e0d2b97131c5c6",
	"7a.csv":             "369043c82f685798",
	"7a.txt":             "df438e93055d209f",
	"7b.csv":             "dee0b9cd4df5fa03",
	"7b.txt":             "9bbe44d5e3d24ad1",
	"7c.csv":             "61ce6ab2533d8b21",
	"7c.txt":             "ab3b5b0c230d3728",
	"8a.csv":             "5028a0f2a472fd3c",
	"8a.txt":             "65bbeb9c78937380",
	"8b.csv":             "d6794b72c92980fe",
	"8b.txt":             "1801880dbaa9874f",
	"9a.csv":             "5a225c0f374b6d71",
	"9a.txt":             "1d969ce1bd6882fd",
	"9b.csv":             "dad8880c4065e962",
	"9b.txt":             "d075161acd2592f5",
	"ext-budget.csv":     "312faad8b93034c5",
	"ext-budget.txt":     "2913f56402918e88",
	"ext-roundrobin.csv": "9703039b33fdbff5",
	"ext-roundrobin.txt": "e7eb82f1c676707e",
	"ext-screening.csv":  "06ddf6cb3d68795f",
	"ext-screening.txt":  "b84789608355d1db",
	"ext-sorters.csv":    "fa9602c9807bcffb",
	"ext-sorters.txt":    "e8a7e213c5885ee0",
	"q-accuracy.txt":     "43a3619ab74470b6",
	"table1.txt":         "b47c266dc6edb3b3",
	"table2.txt":         "7530d8ca562e593a",
	"table3.txt":         "c566a6c3aae06414",
}

func hashOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// TestRegistryRunsEverything runs every experiment id and pins its text
// output (and, for figures, its CSV) to the golden table, so the sweeps
// may be restructured freely as long as every number stays the same.
func TestRegistryRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep is slow; skipped with -short")
	}
	cfg := goldenCfg()
	got := make(map[string]string)
	for _, e := range Registry {
		t.Run(e.ID, func(t *testing.T) {
			var text bytes.Buffer
			if e.Figure != nil {
				fig, err := e.Figure(cfg)
				if err != nil {
					t.Fatalf("figure %s: %v", e.ID, err)
				}
				if err := fig.Render(&text); err != nil {
					t.Fatal(err)
				}
				var csv bytes.Buffer
				if err := fig.WriteCSV(&csv); err != nil {
					t.Fatal(err)
				}
				got[e.ID+".csv"] = hashOf(csv.Bytes())
			} else if err := e.Run(cfg, &text); err != nil {
				t.Fatalf("runner %s: %v", e.ID, err)
			}
			if text.Len() == 0 {
				t.Errorf("runner %s produced no output", e.ID)
			}
			got[e.ID+".txt"] = hashOf(text.Bytes())
		})
	}
	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Printf("\t%q: %q,\n", k, got[k])
		}
		t.Skip("printed the golden table")
	}
	if len(got) != len(goldenOutputs) {
		t.Errorf("%d outputs, golden table has %d", len(got), len(goldenOutputs))
	}
	for k, h := range got {
		if want := goldenOutputs[k]; h != want {
			t.Errorf("%s: output hash %s, golden %s", k, h, want)
		}
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

// sanitySkylineCheck re-runs the full-pruning configuration on a fresh
// dataset and verifies the result against the oracle, to keep the sweep
// harness honest.
func sanitySkylineCheck(gen dataset.GenerateConfig, seed int64) error {
	d := dataset.MustGenerate(gen, rand.New(rand.NewSource(seed)))
	res := core.Run(d, perfectPlatform(d), core.AllPruning())
	if !metrics.SameSet(res.Skyline, skyline.OracleSkyline(d)) {
		return fmt.Errorf("experiments: skyline mismatch on %+v seed %d", gen, seed)
	}
	return nil
}

func TestSanityCheckHelper(t *testing.T) {
	gen := dataset.GenerateConfig{N: 30, KnownDims: 2, CrowdDims: 1, Distribution: dataset.Independent}
	if err := sanitySkylineCheck(gen, 1); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicPolicySpread(t *testing.T) {
	d := dataset.Toy()
	p := dynamicVoting(nil)
	if p.Workers(voting.Context{Progress: 0.1, HasProgress: true}) <= p.Workers(voting.Context{Progress: 0.9, HasProgress: true}) {
		t.Errorf("dynamic policy does not favor early questions")
	}
	sp := smartVoting(skyline.NewIndex(d))
	last := sp.Workers(voting.Context{Progress: 0.5, HasProgress: true})
	backed := sp.Workers(voting.Context{Progress: 0.5, HasProgress: true, Backup: 2})
	if backed >= last {
		t.Errorf("smart policy does not discount recoverable checks: %d vs %d", backed, last)
	}
}
