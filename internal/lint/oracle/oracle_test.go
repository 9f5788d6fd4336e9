package oracle

import (
	"math/rand"
	"testing"

	"crowdsky/internal/core"
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/skyline"
)

func gen(t testing.TB, n, known, crowdDims int, dist dataset.Distribution, seed int64) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Generate(dataset.GenerateConfig{
		N: n, KnownDims: known, CrowdDims: crowdDims, Distribution: dist,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("generating dataset: %v", err)
	}
	return d
}

// TestOracleAgreesWithCoreOracle pins the independent brute force to the
// ground-truth oracle core's tests grade against (skyline.OracleSkyline):
// if they ever disagree, one of the two dominance definitions drifted.
func TestOracleAgreesWithCoreOracle(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		d := gen(t, 40, 2, 2, dataset.Independent, seed)
		got, want := TrueSkyline(d), skyline.OracleSkyline(d)
		if !equalInts(got, want) {
			t.Fatalf("seed %d: TrueSkyline %v != skyline.OracleSkyline %v", seed, got, want)
		}
	}
}

// TestOracleDifferential sweeps the paper's parameter space: all pruning
// combinations of all three schemes must match the brute-force truth and
// the sort-based baseline under a perfect crowd.
func TestOracleDifferential(t *testing.T) {
	dists := []dataset.Distribution{dataset.Independent, dataset.AntiCorrelated, dataset.Correlated}
	for _, dist := range dists {
		for seed := int64(0); seed < 3; seed++ {
			d := gen(t, 20, 2, 2, dist, seed)
			if err := Differential(d); err != nil {
				t.Errorf("dist %v seed %d: %v", dist, seed, err)
			}
		}
	}
}

// TestOracleDifferentialEdgeCases covers the degenerate shapes the sweep
// misses: tiny cardinalities, a single crowd attribute, duplicate-heavy
// known columns, and wider crowd dimensionality.
func TestOracleDifferentialEdgeCases(t *testing.T) {
	cases := []struct {
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
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := gen(t, c.n, c.known, c.crowdDims, c.dist, c.seed)
			if err := Differential(d); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestOracleRejectsBadResults proves the oracle has teeth: corrupted
// results must fail the corresponding check.
func TestOracleRejectsBadResults(t *testing.T) {
	d := gen(t, 20, 2, 2, dataset.Independent, 7)
	truth := TrueSkyline(d)
	run := func() (*core.Result, crowd.Snapshot) {
		pf := crowd.NewPerfect(crowd.DatasetTruth{Data: d})
		res := core.CrowdSky(d, pf, core.AllPruning())
		return res, pf.Stats().Snapshot()
	}

	res, stats := run()
	if err := CheckSkyline(res, d, truth, stats); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}

	mutations := []struct {
		name   string
		mutate func(*core.Result)
	}{
		{"drop-tuple", func(r *core.Result) { r.Skyline = r.Skyline[1:] }},
		{"duplicate-tuple", func(r *core.Result) { r.Skyline = append(r.Skyline, r.Skyline[len(r.Skyline)-1]) }},
		{"out-of-range", func(r *core.Result) { r.Skyline = append(r.Skyline, d.N()) }},
		{"inflate-questions", func(r *core.Result) { r.Questions++ }},
		{"inflate-rounds", func(r *core.Result) { r.Rounds++ }},
		{"inflate-answers", func(r *core.Result) { r.WorkerAnswers++ }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			res, stats := run()
			m.mutate(res)
			if err := CheckSkyline(res, d, truth, stats); err == nil {
				t.Errorf("mutation %s passed the oracle", m.name)
			}
		})
	}

	// A tuple that is not in the true skyline must trip the soundness
	// check when smuggled into the result.
	res, stats = run()
	inTruth := make(map[int]bool)
	for _, t2 := range truth {
		inTruth[t2] = true
	}
	for i := 0; i < d.N(); i++ {
		if !inTruth[i] {
			res.Skyline = insertSorted(res.Skyline, i)
			if err := CheckSkyline(res, d, truth, stats); err == nil {
				t.Errorf("dominated tuple %d passed the oracle", i)
			}
			break
		}
	}
}

func insertSorted(s []int, v int) []int {
	out := make([]int, 0, len(s)+1)
	done := false
	for _, x := range s {
		if !done && v < x {
			out = append(out, v)
			done = true
		}
		out = append(out, x)
	}
	if !done {
		out = append(out, v)
	}
	return out
}
