package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/metrics"
	"crowdsky/internal/skyline"
	"crowdsky/internal/voting"
)

func randomDataset(seed int64, n, dk, dc int, dist dataset.Distribution) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	return dataset.MustGenerate(dataset.GenerateConfig{
		N: n, KnownDims: dk, CrowdDims: dc, Distribution: dist,
	}, rng)
}

func perfect(d *dataset.Dataset) *crowd.Perfect {
	return crowd.NewPerfect(crowd.DatasetTruth{Data: d})
}

// scheduled returns the full pruning configuration under schedule s.
func scheduled(s Schedule) Options {
	opts := AllPruning()
	opts.Schedule = s
	return opts
}

// TestCrowdSkyMatchesOracle is the Theorem 1 property: under a perfect
// crowd, every pruning configuration returns exactly the ground-truth
// skyline over A, on random datasets of both distributions and several
// dimensionalities.
func TestCrowdSkyMatchesOracle(t *testing.T) {
	prop := func(seed int64, rawN uint8, rawDK, rawDC, rawDist uint8, p1, p2, p3 bool) bool {
		n := int(rawN)%60 + 2
		dk := int(rawDK)%4 + 1
		dc := int(rawDC)%3 + 1
		dist := dataset.Distribution(int(rawDist) % 3)
		d := randomDataset(seed, n, dk, dc, dist)
		want := skyline.OracleSkyline(d)
		res := Run(d, perfect(d), Options{P1: p1, P2: p2, P3: p3})
		if !metrics.SameSet(res.Skyline, want) {
			t.Logf("seed=%d n=%d dk=%d dc=%d dist=%v p=%v%v%v: got %v want %v",
				seed, n, dk, dc, dist, p1, p2, p3, res.Skyline, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelMatchesOracle: both parallelizations return the ground-truth
// skyline under a perfect crowd (they inherit CrowdSky's pruning
// correctness, Section 4.2).
func TestParallelMatchesOracle(t *testing.T) {
	prop := func(seed int64, rawN uint8, rawDC uint8, useSL bool) bool {
		n := int(rawN)%60 + 2
		dc := int(rawDC)%2 + 1
		d := randomDataset(seed, n, 2, dc, dataset.AntiCorrelated)
		want := skyline.OracleSkyline(d)
		var res *Result
		if useSL {
			res = Run(d, perfect(d), scheduled(BySkylineLayers))
		} else {
			res = Run(d, perfect(d), scheduled(ByDominatingSets))
		}
		return metrics.SameSet(res.Skyline, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPruningMonotonicity: each added pruning method reduces the average
// number of questions (the ordering of Figures 6-7). Averaged over seeds
// because a different evaluation order can shift a handful of questions
// either way on an individual dataset.
func TestPruningMonotonicity(t *testing.T) {
	for _, dist := range []dataset.Distribution{dataset.Independent, dataset.AntiCorrelated} {
		var dset, p1, p12, p123 int
		for seed := int64(0); seed < 25; seed++ {
			d := randomDataset(seed, 50, 2, 1, dist)
			q := func(opts Options) int { return Run(d, perfect(d), opts).Questions }
			dset += q(Options{})
			p1 += q(Options{P1: true})
			p12 += q(Options{P1: true, P2: true})
			p123 += q(AllPruning())
		}
		if p1 > dset {
			t.Errorf("%v: P1 asked %d on average > DSet %d", dist, p1, dset)
		}
		if p12 > p1 {
			t.Errorf("%v: P1+P2 asked %d on average > P1 %d", dist, p12, p1)
		}
		// P3's probing only amortizes once enough tuples share dominating
		// sets; at n=50 its probes cost more than they save (see
		// EXPERIMENTS.md). TestP3PaysOffAtScale covers the paper-scale
		// ordering.
		if p123 > p12*3/2 {
			t.Errorf("%v: P1+P2+P3 asked %d on average, far above P1+P2 %d", dist, p123, p12)
		}
	}
}

// TestP3PaysOffAtScale: at the paper's default cardinality the probing
// method P3 reduces questions below P1+P2 (Figures 6a/7a ordering). The
// amortization needs thousands of tuples, so this test is skipped in
// -short mode.
func TestP3PaysOffAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale cardinality; skipped with -short")
	}
	d := randomDataset(0, 4000, 4, 1, dataset.Independent)
	p12 := Run(d, perfect(d), Options{P1: true, P2: true}).Questions
	p123 := Run(d, perfect(d), AllPruning()).Questions
	if p123 >= p12 {
		t.Errorf("at n=4000: P1+P2+P3 asked %d >= P1+P2 %d", p123, p12)
	}
}

// TestSerialRoundsEqualQuestions: the serial algorithm asks one pair per
// round, so for |AC| = 1 rounds == questions (the Serial line of
// Figure 8).
func TestSerialRoundsEqualQuestions(t *testing.T) {
	d := randomDataset(7, 50, 2, 1, dataset.Independent)
	res := Run(d, perfect(d), AllPruning())
	if res.Rounds != res.Questions {
		t.Errorf("serial: rounds %d != questions %d", res.Rounds, res.Questions)
	}
}

// TestParallelRoundsOrdering: ParallelSL uses no more rounds than
// ParallelDSet, which uses no more rounds than Serial (Figures 8-9), and
// ParallelDSet asks essentially the same number of questions as Serial
// (Section 6.1: "ParallelDSet generates the same number of questions for
// Serial" — batching can shift the preference tree's growth order by a
// question or two, so the check allows 5% slack).
func TestParallelRoundsOrdering(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		for _, dist := range []dataset.Distribution{dataset.Independent, dataset.AntiCorrelated} {
			d := randomDataset(seed, 60, 3, 1, dist)
			serial := Run(d, perfect(d), AllPruning())
			pd := Run(d, perfect(d), scheduled(ByDominatingSets))
			psl := Run(d, perfect(d), scheduled(BySkylineLayers))
			if pd.Rounds > serial.Rounds {
				t.Errorf("seed %d %v: ParallelDSet rounds %d > serial %d", seed, dist, pd.Rounds, serial.Rounds)
			}
			if psl.Rounds > pd.Rounds {
				t.Errorf("seed %d %v: ParallelSL rounds %d > ParallelDSet %d", seed, dist, psl.Rounds, pd.Rounds)
			}
			diff := pd.Questions - serial.Questions
			if diff < 0 {
				diff = -diff
			}
			if diff*20 > serial.Questions {
				t.Errorf("seed %d %v: ParallelDSet questions %d deviate >5%% from serial %d",
					seed, dist, pd.Questions, serial.Questions)
			}
		}
	}
}

// TestBaselineMatchesOracle: with a perfect crowd the sort-based baseline
// also finds the exact skyline (its problem is cost, not correctness).
func TestBaselineMatchesOracle(t *testing.T) {
	for _, algo := range []SortAlgorithm{TournamentSort, BitonicSort} {
		for seed := int64(0); seed < 10; seed++ {
			d := randomDataset(seed, 40, 2, 1, dataset.Independent)
			want := skyline.OracleSkyline(d)
			res := Baseline(d, perfect(d), algo, nil)
			if !metrics.SameSet(res.Skyline, want) {
				t.Errorf("%v seed %d: baseline skyline %v != oracle %v", algo, seed, res.Skyline, want)
			}
		}
	}
}

// TestBaselineAsksMore: CrowdSky with full pruning asks fewer questions
// than the sort-based baseline on non-trivial independent datasets (the
// headline of Figure 6).
func TestBaselineAsksMore(t *testing.T) {
	d := randomDataset(3, 100, 4, 1, dataset.Independent)
	base := Baseline(d, perfect(d), TournamentSort, nil)
	cs := Run(d, perfect(d), AllPruning())
	if cs.Questions >= base.Questions {
		t.Errorf("CrowdSky asked %d questions, baseline %d; want CrowdSky < baseline",
			cs.Questions, base.Questions)
	}
}

// TestUnaryPerfectSigmaZero: with zero noise the unary method recovers the
// exact skyline.
func TestUnaryPerfectSigmaZero(t *testing.T) {
	d := randomDataset(5, 50, 2, 1, dataset.Independent)
	up := crowd.NewSimulatedUnary(crowd.DatasetTruth{Data: d}, 0, rand.New(rand.NewSource(1)))
	res := Unary(d, up, 1)
	if !metrics.SameSet(res.Skyline, skyline.OracleSkyline(d)) {
		t.Errorf("unary with σ=0 missed the oracle skyline")
	}
	if res.Rounds != 1 {
		t.Errorf("unary rounds = %d, want 1 (one-shot)", res.Rounds)
	}
	if res.Questions != d.N() {
		t.Errorf("unary questions = %d, want n = %d", res.Questions, d.N())
	}
}

// TestDegeneratePreprocessing: tuples with identical AK values are resolved
// by the crowd before the main algorithm (Algorithm 1, lines 1-3), and the
// result still matches the oracle.
func TestDegeneratePreprocessing(t *testing.T) {
	known := [][]float64{
		{1, 2}, {1, 2}, // identical in AK; latent decides
		{3, 1}, {0.5, 4},
	}
	latent := [][]float64{{0.9}, {0.1}, {0.5}, {0.3}}
	d := dataset.MustNew(known, latent)
	res := Run(d, perfect(d), AllPruning())
	want := skyline.OracleSkyline(d)
	if !metrics.SameSet(res.Skyline, want) {
		t.Errorf("skyline %v, want %v", res.Skyline, want)
	}
}

// TestDegenerateTwins: tuples identical in AK and equal in AC share fate:
// both appear in the skyline when undominated.
func TestDegenerateTwins(t *testing.T) {
	known := [][]float64{
		{1, 2}, {1, 2},
		{2, 1},
	}
	latent := [][]float64{{0.5}, {0.5}, {0.7}}
	d := dataset.MustNew(known, latent)
	res := Run(d, perfect(d), AllPruning())
	want := skyline.OracleSkyline(d)
	if !metrics.SameSet(res.Skyline, want) {
		t.Errorf("skyline %v, want %v (twins must share fate)", res.Skyline, want)
	}
}

// TestNoisyCrowdStillReasonable: with p = 0.8 and ω = 5 static voting the
// result should be close to the truth on a small dataset (a smoke test for
// the noisy pipeline; the statistical claims live in the experiments).
func TestNoisyCrowdStillReasonable(t *testing.T) {
	d := randomDataset(11, 60, 2, 1, dataset.Independent)
	rng := rand.New(rand.NewSource(42))
	pool, err := crowd.NewPool(crowd.PoolConfig{Reliability: 0.8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	pf := crowd.NewSimulated(crowd.DatasetTruth{Data: d}, pool, rng)
	res := Run(d, pf, Options{P1: true, P2: true, P3: true, Voting: voting.Static{Omega: 5}})
	want := skyline.OracleSkyline(d)
	known := skyline.KnownSkyline(d)
	prec, rec := metrics.PrecisionRecall(res.Skyline, want, known)
	if prec < 0.5 || rec < 0.3 {
		t.Errorf("noisy run degraded too far: precision %.2f recall %.2f", prec, rec)
	}
	if res.WorkerAnswers != 5*res.Questions {
		t.Errorf("worker answers %d, want 5 per question (%d)", res.WorkerAnswers, 5*res.Questions)
	}
}

// TestEmptyAndTinyDatasets: degenerate sizes run cleanly.
func TestEmptyAndTinyDatasets(t *testing.T) {
	empty := dataset.MustNew(nil, nil)
	res := Run(empty, perfect(empty), AllPruning())
	if len(res.Skyline) != 0 || res.Questions != 0 {
		t.Errorf("empty dataset: %+v", res)
	}
	one := dataset.MustNew([][]float64{{1}}, [][]float64{{1}})
	res = Run(one, perfect(one), AllPruning())
	if len(res.Skyline) != 1 || res.Questions != 0 {
		t.Errorf("singleton dataset: %+v", res)
	}
}

// TestMultiCrowdAttrQuestionCounting: a pair comparison on |AC| = m crowd
// attributes counts m questions in the same round (Section 3 preamble).
func TestMultiCrowdAttrQuestionCounting(t *testing.T) {
	d := randomDataset(13, 30, 2, 3, dataset.Independent)
	pf := perfect(d)
	res := Run(d, pf, AllPruning())
	if res.Questions%1 != 0 && res.Rounds == 0 {
		t.Fatal("unreachable")
	}
	// Every round must carry at most |AC| questions in the serial run
	// (one pair), and at least one.
	for i, r := range pf.Stats().PerRound() {
		if r.Questions < 1 || r.Questions > d.CrowdDims() {
			t.Errorf("round %d carries %d questions, want 1..%d", i, r.Questions, d.CrowdDims())
		}
	}
	if !metrics.SameSet(res.Skyline, skyline.OracleSkyline(d)) {
		t.Errorf("multi-attr skyline mismatch")
	}
}

// TestSharedIndexVersionAware pins the Options.Index adoption contract:
// a shared index is adopted only while it actually covers the dataset.
// An alive-restricted index and an index over another dataset must make
// prepMachine fall back to its own build — the mismatch is detected
// through Matches, not assumed from construction.
func TestSharedIndexVersionAware(t *testing.T) {
	d := randomDataset(8, 80, 3, 1, dataset.Independent)
	ix := skyline.NewIndex(d)

	ss := newSession(d, perfect(d), Options{P2: true, Index: ix})
	ss.prepMachine()
	if ss.ix != ix {
		t.Fatalf("matching shared index was not adopted")
	}

	alive := make([]bool, d.N())
	for i := range alive {
		alive[i] = i != 3
	}
	restricted := skyline.NewIndexAlive(d, alive)
	ss2 := newSession(d, perfect(d), Options{P2: true, Index: restricted})
	ss2.prepMachine()
	if ss2.ix == restricted {
		t.Fatalf("alive-restricted shared index was silently adopted")
	}

	other := skyline.NewIndex(randomDataset(9, 80, 3, 1, dataset.Independent))
	ss3 := newSession(d, perfect(d), Options{P2: true, Index: other})
	ss3.prepMachine()
	if ss3.ix == other {
		t.Fatalf("index over another dataset was silently adopted")
	}

	// End to end: a run handed a non-adoptable index must still return
	// the ground-truth skyline, because it rebuilds rather than reuses.
	want := skyline.OracleSkyline(d)
	for _, shared := range []*skyline.Index{restricted, other} {
		opts := AllPruning()
		opts.Index = shared
		if got := Run(d, perfect(d), opts); !slices.Equal(got.Skyline, want) {
			t.Fatalf("skyline with non-adoptable shared index: got %v, want %v", got.Skyline, want)
		}
	}
}

// TestScheduleNames: every schedule parses back from its String and from
// its short command-line form; a value past the list fails Check, and Run
// panics on it before asking the crowd anything.
func TestScheduleNames(t *testing.T) {
	for s := range Schedule(len(schedules)) {
		for _, name := range []string{s.String(), strings.TrimPrefix(s.String(), "parallel-")} {
			if got, err := ParseSchedule(name); err != nil || got != s {
				t.Errorf("ParseSchedule(%q) = %v, %v; want %v", name, got, err, s)
			}
		}
	}
	if _, err := ParseSchedule("crowdsky"); err == nil {
		t.Error("ParseSchedule accepted an unknown name")
	}
	bad := Schedule(len(schedules))
	if bad.Check() == nil || !strings.Contains(bad.String(), "3") {
		t.Errorf("schedule %d: Check passed or String %q hides the value", int(bad), bad.String())
	}
	d := dataset.Toy()
	pf := perfect(d)
	defer func() {
		if recover() == nil {
			t.Error("Run accepted an unknown schedule")
		}
		if q := pf.Stats().Questions(); q != 0 {
			t.Errorf("Run asked %d questions before rejecting the schedule", q)
		}
	}()
	Run(d, pf, Options{Schedule: bad})
}

// dominatingSets lists DS(t) of every tuple in ascending tuple order, as
// the session's index holds it: nil for skyline and removed tuples.
func dominatingSets(ss *session) [][]int {
	sets := make([][]int, ss.d.N())
	for t := range sets {
		sets[t] = ss.ix.AppendDominators(nil, t, nil)
		slices.Sort(sets[t])
	}
	return sets
}
