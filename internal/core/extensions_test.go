package core

import (
	"maps"
	"testing"
	"testing/quick"

	"crowdsky/internal/dataset"
	"crowdsky/internal/metrics"
	"crowdsky/internal/skyline"
	"crowdsky/internal/voting"
)

// TestRoundRobinAC: the round-robin multi-attribute strategy (Section 6.1's
// unevaluated suggestion) never changes the skyline under a perfect crowd.
func TestRoundRobinAC(t *testing.T) {
	prop := func(seed int64, rawN uint8, rawDC uint8) bool {
		n := int(rawN)%50 + 4
		dc := int(rawDC)%3 + 1
		d := randomDataset(seed, n, 3, dc, dataset.Independent)
		want := skyline.OracleSkyline(d)

		rr := AllPruning()
		rr.RoundRobinAC = true
		resRR := Run(d, perfect(d), rr)

		if !metrics.SameSet(resRR.Skyline, want) {
			t.Logf("seed %d: round-robin skyline %v != oracle %v", seed, resRR.Skyline, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundRobinSavesOnMultiAttr: with several crowd attributes the
// strategy saves questions on average (an individual dataset can go either
// way because skipping an attribute also withholds information from the
// preference tree).
func TestRoundRobinSavesOnMultiAttr(t *testing.T) {
	var plain, rrTotal int
	for seed := int64(0); seed < 10; seed++ {
		d := randomDataset(seed, 120, 3, 3, dataset.Independent)
		plain += Run(d, perfect(d), AllPruning()).Questions
		rr := AllPruning()
		rr.RoundRobinAC = true
		rrTotal += Run(d, perfect(d), rr).Questions
	}
	if rrTotal >= plain {
		t.Errorf("round-robin asked %d questions on average, want fewer than %d", rrTotal, plain)
	}
}

// TestBudgetCap: with a question budget (the fixed-budget setting of [12])
// the run stops at the cap, flags truncation, and reads out optimistically —
// the reported skyline is a superset of the true skyline because no tuple is
// wrongly killed.
func TestBudgetCap(t *testing.T) {
	d := randomDataset(5, 80, 2, 1, dataset.Independent)
	full := Run(d, perfect(d), AllPruning())
	want := skyline.OracleSkyline(d)

	for _, budget := range []int{1, 5, full.Questions / 2, full.Questions} {
		opts := AllPruning()
		opts.MaxQuestions = budget
		res := Run(d, perfect(d), opts)
		if res.Questions > budget {
			t.Errorf("budget %d: asked %d questions", budget, res.Questions)
		}
		if budget < full.Questions && !res.Truncated {
			t.Errorf("budget %d: truncation not flagged", budget)
		}
		if budget >= full.Questions && res.Truncated {
			t.Errorf("budget %d: flagged truncated despite sufficient budget", budget)
		}
		// Optimistic superset property.
		inRes := make(map[int]bool)
		for _, s := range res.Skyline {
			inRes[s] = true
		}
		for _, s := range want {
			if !inRes[s] {
				t.Errorf("budget %d: true skyline sple %d missing from optimistic readout", budget, s)
			}
		}
	}
}

// TestBudgetCapMonotone: a larger budget never yields a larger (less
// refined) optimistic skyline under a perfect crowd.
func TestBudgetCapMonotone(t *testing.T) {
	d := randomDataset(9, 60, 2, 1, dataset.AntiCorrelated)
	prev := d.N() + 1
	for _, budget := range []int{2, 8, 32, 128, 1 << 20} {
		opts := AllPruning()
		opts.MaxQuestions = budget
		res := Run(d, perfect(d), opts)
		if len(res.Skyline) > prev {
			t.Errorf("budget %d: skyline grew from %d to %d", budget, prev, len(res.Skyline))
		}
		prev = len(res.Skyline)
	}
}

// TestBudgetCapParallel: the parallel schedulers honor the budget too,
// and every scheduler follows the one budget rule. Under a budget of 10 the
// run flags truncation and its readout is a superset of the true skyline.
// Under a budget of exactly the scheduler's unlimited question count, the
// round that spends the last question is folded in like any other: the
// skyline is the oracle's and nothing is truncated.
func TestBudgetCapParallel(t *testing.T) {
	d := randomDataset(11, 70, 2, 1, dataset.Independent)
	want := skyline.OracleSkyline(d)
	for sc := ByDominatingSets; sc < Schedule(len(schedules)); sc++ {
		opts := scheduled(sc)
		opts.MaxQuestions = 10
		res := Run(d, perfect(d), opts)
		if res.Questions > 10 {
			t.Errorf("%v: asked %d questions with budget 10", sc, res.Questions)
		}
		if !res.Truncated {
			t.Errorf("%v: truncation not flagged", sc)
		}
		inRes := make(map[int]bool)
		for _, s := range res.Skyline {
			inRes[s] = true
		}
		for _, s := range want {
			if !inRes[s] {
				t.Errorf("%v: true skyline tuple %d missing from optimistic readout", sc, s)
			}
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		d := randomDataset(seed, 70, 2, 1, dataset.Independent)
		want := skyline.OracleSkyline(d)
		for sc := range Schedule(len(schedules)) {
			opts := scheduled(sc)
			opts.MaxQuestions = Run(d, perfect(d), opts).Questions
			res := Run(d, perfect(d), opts)
			if !metrics.SameSet(res.Skyline, want) || res.Truncated || res.Questions != opts.MaxQuestions {
				t.Errorf("seed %d, %v, exact budget %d: skyline %v (oracle %v), truncated %v, %d questions",
					seed, sc, opts.MaxQuestions, res.Skyline, want, res.Truncated, res.Questions)
			}
		}
	}
}

// backupRecorder is a voting policy that assigns one worker and counts the
// questions it sees by their Backup.
type backupRecorder map[int]int

func (r backupRecorder) Workers(ctx voting.Context) int {
	r[ctx.Backup]++
	return 1
}

// TestBackupContextSameAcrossSchedulers: every scheduler tells the voting
// policy how many dominators remain behind a question. Under
// P1 alone the three ask the same questions, one per pair and pipeline, so
// the policy must see the same Backup histogram from each; a scheduler
// that passed Backup 0 regardless would leave voting.Smart's discount for
// backed-up checks dead.
func TestBackupContextSameAcrossSchedulers(t *testing.T) {
	d := randomDataset(3, 200, 2, 1, dataset.AntiCorrelated)
	hist := func(s Schedule) backupRecorder {
		rec := backupRecorder{}
		Run(d, perfect(d), Options{Schedule: s, P1: true, Voting: rec})
		return rec
	}
	serial := hist(Serial)
	if serial[0] == 0 || len(serial) < 2 {
		t.Fatalf("serial backup histogram %v: want questions both with and without backup", serial)
	}
	for s := ByDominatingSets; s < Schedule(len(schedules)); s++ {
		if got := hist(s); !maps.Equal(got, serial) {
			t.Errorf("%v backup histogram %v, serial %v", s, got, serial)
		}
	}
}

// TestProbabilisticCollapsesWithFullBudget: under every schedule with no
// budget cap every tuple is complete and the probabilities are the exact
// 0/1 skyline indicator.
func TestProbabilisticCollapsesWithFullBudget(t *testing.T) {
	d := randomDataset(31, 60, 2, 1, dataset.Independent)
	want := make(map[int]bool)
	for _, s := range skyline.OracleSkyline(d) {
		want[s] = true
	}
	for sc := range Schedule(len(schedules)) {
		res := CrowdSkyProbabilistic(d, perfect(d), scheduled(sc))
		// The readout runs the same schedule dispatch as Run.
		if plain := Run(d, perfect(d), scheduled(sc)); res.Questions != plain.Questions || res.Rounds != plain.Rounds {
			t.Errorf("%v: %d questions in %d rounds, Run asks %d in %d",
				sc, res.Questions, res.Rounds, plain.Questions, plain.Rounds)
		}
		for _, tp := range res.Probabilities {
			wantP := 0.0
			if want[tp.Tuple] {
				wantP = 1.0
			}
			if tp.Probability != wantP {
				t.Errorf("%v, tuple %d: probability %.2f, want %.0f", sc, tp.Tuple, tp.Probability, wantP)
			}
		}
		if !metrics.SameSet(res.Skyline, skyline.OracleSkyline(d)) {
			t.Errorf("%v: probabilistic run changed the skyline", sc)
		}
	}
}

// TestProbabilisticUnderBudget: with a tight budget, probabilities are
// proper (in [0,1]), true skyline tuples never get probability 0, and the
// mean probability of true skyline tuples exceeds that of non-skyline
// tuples (the ranking is informative).
func TestProbabilisticUnderBudget(t *testing.T) {
	d := randomDataset(33, 120, 2, 1, dataset.Independent)
	full := Run(d, perfect(d), AllPruning())
	opts := AllPruning()
	opts.MaxQuestions = full.Questions / 3
	res := CrowdSkyProbabilistic(d, perfect(d), opts)
	if !res.Truncated {
		t.Fatalf("budgeted run not truncated")
	}
	want := make(map[int]bool)
	for _, s := range skyline.OracleSkyline(d) {
		want[s] = true
	}
	var skySum, skyN, nonSum, nonN float64
	for _, tp := range res.Probabilities {
		if tp.Probability < 0 || tp.Probability > 1 {
			t.Fatalf("tuple %d: probability %v outside [0,1]", tp.Tuple, tp.Probability)
		}
		if want[tp.Tuple] {
			if tp.Probability == 0 {
				t.Errorf("true skyline tuple %d got probability 0", tp.Tuple)
			}
			skySum += tp.Probability
			skyN++
		} else {
			nonSum += tp.Probability
			nonN++
		}
	}
	if skyN == 0 || nonN == 0 {
		t.Skip("degenerate dataset")
	}
	if skySum/skyN <= nonSum/nonN {
		t.Errorf("probabilities uninformative: skyline mean %.3f <= non-skyline mean %.3f",
			skySum/skyN, nonSum/nonN)
	}
}

// TestPartialMissingValues: tuples with stored crowd values (Example 1's
// partial-missing scenario) contribute their relations for free — the
// skyline stays exact while the question count drops with the stored
// fraction, reaching zero when everything is stored.
func TestPartialMissingValues(t *testing.T) {
	d := randomDataset(41, 80, 2, 1, dataset.Independent)
	baseline := Run(d, perfect(d), AllPruning()).Questions
	want := skyline.OracleSkyline(d)

	prev := baseline + 1
	for _, frac := range []float64{0.0, 0.5, 1.0} {
		mask := make([][]bool, d.N())
		for i := range mask {
			mask[i] = []bool{float64(i) < frac*float64(d.N())}
		}
		if err := d.SetCrowdKnown(mask); err != nil {
			t.Fatal(err)
		}
		res := Run(d, perfect(d), AllPruning())
		if !metrics.SameSet(res.Skyline, want) {
			t.Errorf("frac %.1f: skyline mismatch", frac)
		}
		if res.Questions > prev {
			t.Errorf("frac %.1f: questions rose to %d (prev %d)", frac, res.Questions, prev)
		}
		prev = res.Questions
		if frac == 0 && res.Questions != baseline {
			t.Errorf("empty mask changed the run: %d vs %d", res.Questions, baseline)
		}
		if frac == 1 && res.Questions != 0 {
			t.Errorf("fully stored values still asked %d questions", res.Questions)
		}
	}
	// Reset the shared dataset mask for other tests (randomDataset caches
	// nothing, but be tidy).
	_ = d.SetCrowdKnown(make([][]bool, 0))
}

// TestPartialMissingDirectVariants: the DSet/P1-only variants (no
// preference tree) also exploit stored values through direct answers.
func TestPartialMissingDirectVariants(t *testing.T) {
	d := randomDataset(43, 60, 2, 1, dataset.Independent)
	mask := make([][]bool, d.N())
	for i := range mask {
		mask[i] = []bool{i%2 == 0}
	}
	if err := d.SetCrowdKnown(mask); err != nil {
		t.Fatal(err)
	}
	want := skyline.OracleSkyline(d)
	for name, opts := range map[string]Options{
		"DSet": {},
		"P1":   {P1: true},
	} {
		res := Run(d, perfect(d), opts)
		if !metrics.SameSet(res.Skyline, want) {
			t.Errorf("%s: skyline mismatch with stored values", name)
		}
	}
}
