package core

// Failure-injection tests: hostile and degraded crowd conditions must never
// break the algorithms — they may degrade accuracy, but runs terminate,
// accounting stays consistent, and contradictory answers are counted
// rather than corrupting the preference tree.

import (
	"math/rand"
	"testing"

	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/metrics"
	"crowdsky/internal/skyline"
	"crowdsky/internal/voting"
)

func noisyPool(t *testing.T, cfg crowd.PoolConfig, seed int64) (*crowd.Pool, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pool, err := crowd.NewPool(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	return pool, rng
}

// TestAdversarialCrowdTerminates: workers with zero reliability (always
// wrong) still yield a terminating run with consistent accounting across
// all schedulers.
func TestAdversarialCrowdTerminates(t *testing.T) {
	d := randomDataset(21, 50, 2, 1, dataset.Independent)
	for s := range Schedule(len(schedules)) {
		pool, rng := noisyPool(t, crowd.PoolConfig{Reliability: 0}, 1)
		pf := crowd.NewSimulated(crowd.DatasetTruth{Data: d}, pool, rng)
		res := Run(d, pf, scheduled(s))
		if res.Questions <= 0 || res.Rounds <= 0 {
			t.Errorf("%v: adversarial run asked nothing: %+v", s, res)
		}
		if len(res.Skyline) == 0 {
			t.Errorf("%v: adversarial run returned an empty skyline", s)
		}
	}
}

// TestSpammerHeavyPool: a pool where half the workers answer randomly
// still completes, and majority voting keeps accuracy above the
// single-worker floor.
func TestSpammerHeavyPool(t *testing.T) {
	d := randomDataset(23, 80, 2, 1, dataset.Independent)
	want := skyline.OracleSkyline(d)
	known := skyline.KnownSkyline(d)

	accuracy := func(omega int) float64 {
		pool, rng := noisyPool(t, crowd.PoolConfig{Size: 200, Reliability: 0.95, SpammerFraction: 0.5}, 7)
		pf := crowd.NewSimulated(crowd.DatasetTruth{Data: d}, pool, rng)
		opts := AllPruning()
		opts.Voting = voting.Static{Omega: omega}
		var totalF1 float64
		const runs = 5
		for i := 0; i < runs; i++ {
			res := Run(d, pf, opts)
			p, r := metrics.PrecisionRecall(res.Skyline, want, known)
			totalF1 += metrics.F1(p, r)
		}
		return totalF1 / runs
	}
	if f1 := accuracy(9); f1 < 0.5 {
		t.Errorf("9-worker majority over a half-spam pool degraded to F1 %.2f", f1)
	}
}

// TestContradictionAccounting: with noisy answers the dropped-contradiction
// counter is exposed and the preference tree stays acyclic (no panic, and
// repeated queries are stable).
func TestContradictionAccounting(t *testing.T) {
	d := randomDataset(25, 100, 2, 1, dataset.AntiCorrelated)
	pool, rng := noisyPool(t, crowd.PoolConfig{Reliability: 0.6}, 3)
	pf := crowd.NewSimulated(crowd.DatasetTruth{Data: d}, pool, rng)
	res := Run(d, pf, AllPruning())
	if res.Contradictions < 0 {
		t.Errorf("negative contradictions")
	}
	// A perfect-crowd run never records contradictions.
	res = Run(d, perfect(d), AllPruning())
	if res.Contradictions != 0 {
		t.Errorf("perfect crowd produced %d contradictions", res.Contradictions)
	}
}

// allEqual is a crowd truth that declares every pair equally preferred.
type allEqual struct{}

func (allEqual) Answer(crowd.Question) crowd.Preference { return crowd.Equal }
func (allEqual) Value(int, int) float64                 { return 0 }

// TestAllEqualCrowdLeavesKnownSkyline: a crowd that declares everything
// equal in AC makes every tuple share the fate of its AK-dominators,
// leaving exactly SKY_AK as the result.
func TestAllEqualCrowdLeavesKnownSkyline(t *testing.T) {
	d := randomDataset(27, 40, 2, 1, dataset.Independent)
	pf := crowd.NewPerfect(allEqual{})
	res := Run(d, pf, AllPruning())
	if !metrics.SameSet(res.Skyline, skyline.KnownSkyline(d)) {
		t.Errorf("all-equal crowd should reduce the skyline to SKY_AK: got %v want %v",
			res.Skyline, skyline.KnownSkyline(d))
	}
}

// TestParallelSLOverheadBounded: the C2 violation of ParallelSL costs only
// a few percent extra questions versus serial (the paper reports roughly
// 10%).
func TestParallelSLOverheadBounded(t *testing.T) {
	var serialQ, slQ int
	for seed := int64(0); seed < 10; seed++ {
		for _, dist := range []dataset.Distribution{dataset.Independent, dataset.AntiCorrelated} {
			d := randomDataset(seed, 150, 4, 1, dist)
			serialQ += Run(d, perfect(d), AllPruning()).Questions
			slQ += Run(d, perfect(d), scheduled(BySkylineLayers)).Questions
		}
	}
	if slQ > serialQ*125/100 {
		t.Errorf("ParallelSL asked %d questions vs serial %d (more than +25%%)", slQ, serialQ)
	}
}

// TestWorkerAnswerAccountingAcrossPolicies: worker-answer totals equal the
// per-question assignments the policy dictates.
func TestWorkerAnswerAccountingAcrossPolicies(t *testing.T) {
	d := randomDataset(29, 60, 2, 1, dataset.Independent)
	opts := AllPruning()
	opts.Voting = voting.Static{Omega: 7}
	pool, rng := noisyPool(t, crowd.PoolConfig{Reliability: 0.9}, 9)
	pf := crowd.NewSimulated(crowd.DatasetTruth{Data: d}, pool, rng)
	res := Run(d, pf, opts)
	if res.WorkerAnswers != 7*res.Questions {
		t.Errorf("worker answers %d != 7 × %d questions", res.WorkerAnswers, res.Questions)
	}
}
