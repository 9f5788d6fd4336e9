package crowdsky

import (
	"math/rand"
	"strings"
	"testing"

	"crowdsky/internal/voting"
)

func TestRunAllParallelisms(t *testing.T) {
	d := Toy()
	want := Oracle(d)
	for _, p := range []Parallelism{Serial, ByDominatingSets, BySkylineLayers} {
		res, err := Run(d, NewPerfectCrowd(d), RunConfig{Parallelism: p})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if len(res.Skyline) != len(want) {
			t.Errorf("%v: skyline size %d, want %d", p, len(res.Skyline), len(want))
		}
		prec, rec := PrecisionRecall(res.Skyline, want, KnownSkyline(d))
		if prec != 1 || rec != 1 {
			t.Errorf("%v: accuracy %.2f/%.2f under a perfect crowd", p, prec, rec)
		}
	}
}

func TestRunValidation(t *testing.T) {
	d := Toy()
	if _, err := Run(nil, NewPerfectCrowd(d), RunConfig{}); err == nil {
		t.Errorf("nil dataset accepted")
	}
	if _, err := Run(d, nil, RunConfig{}); err == nil {
		t.Errorf("nil platform accepted")
	}
	if _, err := Run(d, NewPerfectCrowd(d), RunConfig{Parallelism: Parallelism(99)}); err == nil {
		t.Errorf("bad parallelism accepted")
	}
	if _, err := RunBaseline(nil, nil, nil); err == nil {
		t.Errorf("baseline nil args accepted")
	}
}

func TestZeroPruningDefaultsToFull(t *testing.T) {
	d := Toy()
	res, err := Run(d, NewPerfectCrowd(d), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Full pruning on the toy dataset asks exactly 12 questions
	// (Example 6); the default config must enable it.
	if res.Questions != 12 {
		t.Errorf("default pruning asked %d questions, want 12", res.Questions)
	}
	// Ablation escape hatch: explicit no-pruning asks more.
	res, err = Run(d, NewPerfectCrowd(d), RunConfig{DisableDefaultPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Questions <= 12 {
		t.Errorf("unpruned run asked %d questions, want more than 12", res.Questions)
	}
}

func TestRunBaselineCostsMore(t *testing.T) {
	d := Movies()
	base, err := RunBaseline(d, NewPerfectCrowd(d), StaticVoting(5))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := Run(d, NewPerfectCrowd(d), RunConfig{Voting: StaticVoting(5)})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Cost >= base.Cost {
		t.Errorf("CrowdSky cost $%.2f >= baseline $%.2f", cs.Cost, base.Cost)
	}
}

func TestSimulatedCrowdDeterminism(t *testing.T) {
	d := Movies()
	run := func() *Result {
		pf := NewSimulatedCrowd(d, CrowdConfig{Reliability: 0.8, Seed: 42})
		res, err := Run(d, pf, RunConfig{Voting: StaticVoting(5)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Questions != b.Questions || len(a.Skyline) != len(b.Skyline) {
		t.Errorf("same seed produced different runs: %+v vs %+v", a, b)
	}
	for i := range a.Skyline {
		if a.Skyline[i] != b.Skyline[i] {
			t.Errorf("skylines differ at %d", i)
		}
	}
}

func TestNewDatasetAndGenerate(t *testing.T) {
	d, err := NewDataset([][]float64{{1, 2}}, [][]float64{{3}})
	if err != nil || d.N() != 1 {
		t.Fatalf("NewDataset: %v", err)
	}
	g, err := Generate(GenerateConfig{N: 10, KnownDims: 2, CrowdDims: 1, Distribution: AntiCorrelated},
		rand.New(rand.NewSource(1)))
	if err != nil || g.N() != 10 {
		t.Fatalf("Generate: %v", err)
	}
}

func TestReadCSVThroughPublicAPI(t *testing.T) {
	csv := "name,x,y,z\na,1,2,3\nb,2,1,4\n"
	d, err := ReadCSV(strings.NewReader(csv), CSVOptions{
		NameColumn:   "name",
		KnownColumns: []string{"x", "y"},
		CrowdColumns: []string{"z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, NewPerfectCrowd(d), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skyline) != 2 {
		t.Errorf("skyline = %v, want both tuples (incomparable)", res.Skyline)
	}
}

func TestInteractiveCrowdThroughPublicAPI(t *testing.T) {
	d, err := NewDataset([][]float64{{1}, {2}}, [][]float64{{0}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	// Tuple 0 dominates tuple 1 in AK; one question decides A's fate...
	// actually DS(1) = {0}, so the single question is (0, 1). Answer "1":
	// tuple 0 preferred, killing tuple 1.
	pf := NewInteractiveCrowd(d, strings.NewReader("1\n"), &out)
	res, err := Run(d, pf, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skyline) != 1 || res.Skyline[0] != 0 {
		t.Errorf("skyline = %v, want [0]", res.Skyline)
	}
	if !strings.Contains(out.String(), "preferred") {
		t.Errorf("prompt missing: %q", out.String())
	}
}

func TestDynamicVotingPolicy(t *testing.T) {
	d := Toy()
	p := DynamicVoting(d, 5)
	if p.Workers(VotingContext{Progress: 0.1, HasProgress: true}) <= p.Workers(VotingContext{Progress: 0.9, HasProgress: true}) {
		t.Errorf("dynamic policy does not favor early questions")
	}
	// SmartVoting boosts high-importance questions relative to the toy
	// dataset's frequency distribution.
	sp := SmartVoting(d, 5)
	if sp.Workers(VotingContext{Freq: 1000}) <= sp.Workers(VotingContext{}) {
		t.Errorf("smart policy does not favor important questions")
	}
}

// TestSmartVotingBeta pins SmartVoting's calibration: β is the 95th
// percentile of freq(u,v) over the dominating-set and probing questions.
func TestSmartVotingBeta(t *testing.T) {
	ind, err := Generate(GenerateConfig{N: 300, KnownDims: 4, CrowdDims: 1, Distribution: Independent},
		rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		d    *Dataset
		beta int
	}{
		{"toy", Toy(), 5},
		{"ind-300-seed1", ind, 80},
	} {
		sp, ok := SmartVoting(tc.d, 5).(voting.Smart)
		if !ok {
			t.Fatalf("%s: SmartVoting is not a voting.Smart", tc.name)
		}
		if sp.Omega != 5 || sp.BetaFreq != tc.beta {
			t.Errorf("%s: ω=%d β=%d, want ω=5 β=%d", tc.name, sp.Omega, sp.BetaFreq, tc.beta)
		}
	}
}

func TestParallelismString(t *testing.T) {
	if Serial.String() != "serial" || ByDominatingSets.String() != "parallel-dset" ||
		BySkylineLayers.String() != "parallel-sl" {
		t.Errorf("parallelism names wrong")
	}
	if !strings.Contains(Parallelism(9).String(), "9") {
		t.Errorf("unknown parallelism name")
	}
}

func TestPublicBudgetAndRoundRobin(t *testing.T) {
	d := Movies()
	res, err := Run(d, NewPerfectCrowd(d), RunConfig{Budget: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Questions > 5 || !res.Truncated {
		t.Errorf("budgeted run: questions=%d truncated=%v", res.Questions, res.Truncated)
	}
	// Round-robin on a single crowd attribute is a no-op.
	plain, err := Run(d, NewPerfectCrowd(d), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(d, NewPerfectCrowd(d), RunConfig{RoundRobinAC: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Questions != rr.Questions {
		t.Errorf("round-robin changed single-attribute run: %d vs %d", plain.Questions, rr.Questions)
	}
}
