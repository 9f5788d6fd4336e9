package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/skyline"
)

// The differential oracle makes the paper's exactness claim executable:
// P1-P3 and both parallel schemes change cost and latency, never the
// answer (Sections 3-4). Every pruning combination of every scheme, plus
// the sort-based baseline, runs under a perfect crowd and is graded
// against skyline.OracleSkyline, the one ground-truth reference. No
// session calls the oracle's full-attribute dominance test, so a bug in
// the index or the sessions cannot vouch for itself.

// checkSkyline verifies one algorithm result against the expected skyline
// truth and the platform's question accounting; stats is the Snapshot of
// the platform the run used. The checks:
//
//   - well-formedness: indices in range, strictly ascending (sorted and
//     duplicate-free);
//   - soundness: every reported tuple is in truth;
//   - completeness: every tuple of truth is reported — valid whenever the
//     crowd was perfect and the run was not budget-truncated;
//   - accounting: the result's question/round/judgment counters agree
//     with the platform's own books, and judgments cover questions.
//
// A nil error means every invariant holds.
func checkSkyline(res *Result, d *dataset.Dataset, truth []int, stats crowd.Snapshot) error {
	if res == nil {
		return fmt.Errorf("nil result")
	}
	n := d.N()
	for i, t := range res.Skyline {
		if t < 0 || t >= n {
			return fmt.Errorf("skyline[%d] = %d out of range [0,%d)", i, t, n)
		}
		if i > 0 && res.Skyline[i-1] >= t {
			return fmt.Errorf("skyline not strictly ascending at %d: %d then %d",
				i, res.Skyline[i-1], t)
		}
	}
	for _, t := range res.Skyline {
		if _, ok := slices.BinarySearch(truth, t); !ok {
			return fmt.Errorf("unsound: reported tuple %d is dominated", t)
		}
	}
	if !res.Truncated {
		for _, t := range truth {
			if _, ok := slices.BinarySearch(res.Skyline, t); !ok {
				return fmt.Errorf("incomplete: true skyline tuple %d missing from result", t)
			}
		}
	}
	if res.Questions != stats.Questions {
		return fmt.Errorf("result claims %d questions, platform booked %d",
			res.Questions, stats.Questions)
	}
	if res.Rounds != stats.Rounds {
		return fmt.Errorf("result claims %d rounds, platform booked %d",
			res.Rounds, stats.Rounds)
	}
	if res.WorkerAnswers != stats.WorkerAnswers {
		return fmt.Errorf("result claims %d worker answers, platform booked %d",
			res.WorkerAnswers, stats.WorkerAnswers)
	}
	if res.WorkerAnswers < res.Questions {
		return fmt.Errorf("%d worker answers cannot cover %d questions (every question needs ≥1)",
			res.WorkerAnswers, res.Questions)
	}
	perRoundQuestions := 0
	for _, r := range stats.PerRound {
		perRoundQuestions += r.Questions
	}
	if len(stats.PerRound) != stats.Rounds || perRoundQuestions != stats.Questions {
		return fmt.Errorf("per-round breakdown (%d rounds, %d questions) disagrees with totals (%d, %d)",
			len(stats.PerRound), perRoundQuestions, stats.Rounds, stats.Questions)
	}
	return nil
}

// differential runs all 2³ P1/P2/P3 settings of every schedule on d under a
// perfect crowd, checks each result with checkSkyline against the oracle,
// and requires every result, and the tournament baseline, to be exactly
// the oracle's skyline.
func differential(d *dataset.Dataset) error {
	truth := skyline.OracleSkyline(d)
	// One dominance index serves all 24 runs; every schedule adopts it via
	// Options.Index instead of recomputing the quadratic machine part.
	ix := skyline.NewIndex(d)
	for s := range Schedule(len(schedules)) {
		for bits := 0; bits < 8; bits++ {
			opts := Options{Schedule: s, P1: bits&1 != 0, P2: bits&2 != 0, P3: bits&4 != 0, Index: ix}
			pf := perfect(d)
			res := Run(d, pf, opts)
			if err := checkSkyline(res, d, truth, pf.Stats().Snapshot()); err != nil {
				return fmt.Errorf("%v{P1:%v P2:%v P3:%v}: %w", s, opts.P1, opts.P2, opts.P3, err)
			}
			if !slices.Equal(res.Skyline, truth) {
				return fmt.Errorf("%v{P1:%v P2:%v P3:%v}: skyline %v differs from truth %v",
					s, opts.P1, opts.P2, opts.P3, res.Skyline, truth)
			}
		}
	}
	pf := perfect(d)
	base := Baseline(d, pf, TournamentSort, nil)
	if err := checkSkyline(base, d, truth, pf.Stats().Snapshot()); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	if !slices.Equal(base.Skyline, truth) {
		return fmt.Errorf("baseline: skyline %v differs from truth %v", base.Skyline, truth)
	}
	return nil
}

func genDataset(t testing.TB, n, known, crowdDims int, dist dataset.Distribution, seed int64) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Generate(dataset.GenerateConfig{
		N: n, KnownDims: known, CrowdDims: crowdDims, Distribution: dist,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("generating dataset: %v", err)
	}
	return d
}

// TestOracleDifferential sweeps the paper's parameter space: all pruning
// combinations of all three schemes must match the oracle and the
// sort-based baseline under a perfect crowd.
func TestOracleDifferential(t *testing.T) {
	dists := []dataset.Distribution{dataset.Independent, dataset.AntiCorrelated, dataset.Correlated}
	for _, dist := range dists {
		for seed := int64(0); seed < 3; seed++ {
			d := genDataset(t, 20, 2, 2, dist, seed)
			if err := differential(d); err != nil {
				t.Errorf("dist %v seed %d: %v", dist, seed, err)
			}
		}
	}
}

// nearTies returns two-tuple datasets whose values differ in the last
// bit only. Dominance, Algorithm 1's degenerate case and the stored-value
// seeding are defined on identical values, so 0.3 and the next float
// above it are distinct, and each dataset's skyline is both tuples:
//
//   - known-near-tie: the known rows differ by one ulp on the first
//     attribute, so tuple 1 is better in AK and tuple 0 in AC;
//   - known-near-tie-second: the same on the second attribute, so the
//     rows share the first attribute, the degenerate-pair scan's key;
//   - stored-near-tie: tuple 0 is better in AK, and both crowd values
//     are stored, one ulp apart in tuple 1's favour.
func nearTies() map[string]*dataset.Dataset {
	up := math.Nextafter(0.3, 1)
	stored := dataset.MustNew([][]float64{{0, 1}, {1, 1}}, [][]float64{{up}, {0.3}})
	if err := stored.SetCrowdKnown([][]bool{{true}, {true}}); err != nil {
		panic(err)
	}
	return map[string]*dataset.Dataset{
		"known-near-tie":        dataset.MustNew([][]float64{{up, 1}, {0.3, 1}}, [][]float64{{0}, {1}}),
		"known-near-tie-second": dataset.MustNew([][]float64{{1, up}, {1, 0.3}}, [][]float64{{0}, {1}}),
		"stored-near-tie":       stored,
	}
}

// TestOracleDifferentialEdgeCases covers the shapes the sweep misses:
// tiny cardinalities, a single crowd attribute, wider crowd
// dimensionality, and values one ulp apart.
func TestOracleDifferentialEdgeCases(t *testing.T) {
	cases := nearTies()
	for _, c := range []struct {
		name                string
		n, known, crowdDims int
		dist                dataset.Distribution
		seed                int64
	}{
		{"n1", 1, 1, 1, dataset.Independent, 1},
		{"n2", 2, 1, 1, dataset.Independent, 2},
		{"n3-anti", 3, 2, 1, dataset.AntiCorrelated, 3},
		{"one-crowd-attr", 16, 3, 1, dataset.Independent, 4},
		{"three-crowd-attrs", 12, 1, 3, dataset.Independent, 5},
		{"correlated", 16, 2, 2, dataset.Correlated, 6},
	} {
		cases[c.name] = genDataset(t, c.n, c.known, c.crowdDims, c.dist, c.seed)
	}
	for name, d := range cases {
		t.Run(name, func(t *testing.T) {
			if err := differential(d); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestOracleRejectsBadResults proves the checks have teeth: corrupted
// results must fail the corresponding check.
func TestOracleRejectsBadResults(t *testing.T) {
	d := genDataset(t, 20, 2, 2, dataset.Independent, 7)
	truth := skyline.OracleSkyline(d)
	run := func() (*Result, crowd.Snapshot) {
		pf := perfect(d)
		res := Run(d, pf, AllPruning())
		return res, pf.Stats().Snapshot()
	}

	res, stats := run()
	if err := checkSkyline(res, d, truth, stats); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}

	mutations := []struct {
		name   string
		mutate func(*Result)
	}{
		{"drop-tuple", func(r *Result) { r.Skyline = r.Skyline[1:] }},
		{"duplicate-tuple", func(r *Result) { r.Skyline = append(r.Skyline, r.Skyline[len(r.Skyline)-1]) }},
		{"out-of-range", func(r *Result) { r.Skyline = append(r.Skyline, d.N()) }},
		{"inflate-questions", func(r *Result) { r.Questions++ }},
		{"inflate-rounds", func(r *Result) { r.Rounds++ }},
		{"inflate-answers", func(r *Result) { r.WorkerAnswers++ }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			res, stats := run()
			m.mutate(res)
			if err := checkSkyline(res, d, truth, stats); err == nil {
				t.Errorf("mutation %s passed the oracle", m.name)
			}
		})
	}

	// A tuple that is not in the true skyline must trip the soundness
	// check when smuggled into the result.
	res, stats = run()
	for i := 0; i < d.N(); i++ {
		if _, in := slices.BinarySearch(truth, i); !in {
			at, _ := slices.BinarySearch(res.Skyline, i)
			res.Skyline = slices.Insert(res.Skyline, at, i)
			if err := checkSkyline(res, d, truth, stats); err == nil {
				t.Errorf("dominated tuple %d passed the oracle", i)
			}
			break
		}
	}
}

// FuzzDifferential feeds randomized dataset shapes through the full
// differential harness. The fuzzer explores the shape space (cardinality,
// dimensionalities, distribution, generator seed); sizes are clamped so
// one input stays well under a second even though it runs 25 full
// algorithm executions.
func FuzzDifferential(f *testing.F) {
	f.Add(8, 2, 1, 0, int64(1))
	f.Add(12, 2, 2, 1, int64(2))
	f.Add(16, 3, 2, 2, int64(3))
	f.Add(1, 1, 1, 0, int64(4))
	f.Add(24, 1, 3, 1, int64(5))
	f.Fuzz(func(t *testing.T, n, known, crowdDims, dist int, seed int64) {
		n = min(max(n, 0), 24)
		known = min(max(known, 1), 4)
		crowdDims = min(max(crowdDims, 0), 3)
		distribution := []dataset.Distribution{
			dataset.Independent, dataset.AntiCorrelated, dataset.Correlated,
		}[(dist%3+3)%3]
		d := genDataset(t, n, known, crowdDims, distribution, seed)
		if err := differential(d); err != nil {
			t.Fatal(err)
		}
	})
}
