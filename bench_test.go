package crowdsky

// One benchmark per table, and one BenchmarkFigure sub-benchmark per
// figure, of the paper's evaluation (Section 6). Each regenerates the
// experiment at a reduced scale (so the full suite runs in minutes) and
// reports the paper's metric — questions, rounds, dollars,
// precision/recall — via b.ReportMetric, alongside the usual ns/op. cmd/experiments regenerates the same experiments at
// configurable (up to paper) scale.

import (
	"math/rand"
	"strings"
	"testing"

	"crowdsky/internal/core"
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/experiments"
	"crowdsky/internal/metrics"
	"crowdsky/internal/skyline"
	"crowdsky/internal/voting"
)

// benchCfg is the reduced-scale experiment configuration used by the
// figure benchmarks: 10% of the paper's cardinalities, one run (the bench
// loop supplies repetition).
func benchCfg(seed int64) experiments.Config {
	return experiments.Config{Runs: 1, Seed: seed, Scale: 0.1}
}

// --- Table 1-3: the toy walkthroughs -----------------------------------

func BenchmarkTable1DominatingSets(b *testing.B) {
	d := dataset.Toy()
	total := 0
	for i := 0; i < b.N; i++ {
		sets := skyline.DominatingSets(d)
		total = 0
		for _, s := range sets {
			total += len(s)
		}
	}
	b.ReportMetric(float64(total), "questions") // 26 per Example 3
}

func BenchmarkTable2CrowdSkyToy(b *testing.B) {
	d := dataset.Toy()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		res = core.Run(d, crowd.NewPerfect(crowd.DatasetTruth{Data: d}), core.AllPruning())
	}
	b.ReportMetric(float64(res.Questions), "questions") // 12 per Example 6
}

func BenchmarkTable3ParallelSLToy(b *testing.B) {
	d := dataset.Toy()
	opts := core.AllPruning()
	opts.Schedule = core.BySkylineLayers
	var res *core.Result
	for i := 0; i < b.N; i++ {
		res = core.Run(d, crowd.NewPerfect(crowd.DatasetTruth{Data: d}), opts)
	}
	b.ReportMetric(float64(res.Questions), "questions") // 12 per Example 8
	b.ReportMetric(float64(res.Rounds), "rounds")       // 6 per Example 8
}

// --- Figures 6-12 and the extensions: one sub-benchmark per figure ----

// BenchmarkFigure regenerates every figure of the experiment registry and
// reports each series' final sweep point (largest cardinality or
// dimensionality, Q3 for the real-life queries), the headline comparison
// of each figure, in the unit of its metric: "Baseline_questions",
// "ParallelSL_rounds", "CrowdSky_dollars", "tournament_rounds" and so on.
func BenchmarkFigure(b *testing.B) {
	for _, e := range experiments.Registry {
		if e.Figure == nil {
			continue
		}
		b.Run(e.ID, func(b *testing.B) {
			var fig *experiments.Figure
			var err error
			for i := 0; i < b.N; i++ {
				if fig, err = e.Figure(benchCfg(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
			for _, s := range fig.Series {
				unit := s.Name
				if !strings.HasSuffix(unit, s.Metric) {
					unit += "_" + s.Metric
				}
				b.ReportMetric(s.Y[len(s.Y)-1], strings.ReplaceAll(unit, " ", "_"))
			}
		})
	}
}

// --- Section 6.2: real-life accuracy -----------------------------------

func BenchmarkRealAccuracy(b *testing.B) {
	var results []experiments.RealAccuracyResult
	var err error
	for i := 0; i < b.N; i++ {
		cfg := experiments.Config{Runs: 1, Seed: int64(i)}
		results, err = experiments.RealAccuracy(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		b.ReportMetric(r.Precision, r.Query+"_precision")
		b.ReportMetric(r.Recall, r.Query+"_recall")
	}
}

// --- Ablations and micro-benchmarks beyond the paper's figures ----------

// BenchmarkAblationPruning sweeps the pruning stages on a mid-size
// independent dataset, isolating each stage's question savings (the
// decomposition behind Figures 6-7).
func BenchmarkAblationPruning(b *testing.B) {
	configs := []struct {
		name string
		opts core.Options
	}{
		{"DSet", core.Options{}},
		{"P1", core.Options{P1: true}},
		{"P1P2", core.Options{P1: true, P2: true}},
		{"P1P2P3", core.AllPruning()},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			d := dataset.MustGenerate(dataset.GenerateConfig{
				N: 400, KnownDims: 4, CrowdDims: 1, Distribution: dataset.Independent,
			}, rand.New(rand.NewSource(1)))
			var res *core.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = core.Run(d, crowd.NewPerfect(crowd.DatasetTruth{Data: d}), cfg.opts)
			}
			b.ReportMetric(float64(res.Questions), "questions")
		})
	}
}

// BenchmarkAblationSorters compares the two baseline sorters' cost/latency
// trade-off (Section 3's tournament vs bitonic choice).
func BenchmarkAblationSorters(b *testing.B) {
	for _, algo := range []core.SortAlgorithm{core.TournamentSort, core.BitonicSort} {
		b.Run(algo.String(), func(b *testing.B) {
			d := dataset.MustGenerate(dataset.GenerateConfig{
				N: 200, KnownDims: 2, CrowdDims: 1, Distribution: dataset.Independent,
			}, rand.New(rand.NewSource(1)))
			var res *core.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = core.Baseline(d, crowd.NewPerfect(crowd.DatasetTruth{Data: d}), algo, nil)
			}
			b.ReportMetric(float64(res.Questions), "questions")
			b.ReportMetric(float64(res.Rounds), "rounds")
		})
	}
}

// BenchmarkMachinePartThroughput measures the pure machine-side cost of a
// full CrowdSky run (dominating sets, preference graph, pruning) with a
// zero-latency crowd — the overhead a deployment pays beyond waiting for
// workers.
func BenchmarkMachinePartThroughput(b *testing.B) {
	d := dataset.MustGenerate(dataset.GenerateConfig{
		N: 1000, KnownDims: 4, CrowdDims: 1, Distribution: dataset.AntiCorrelated,
	}, rand.New(rand.NewSource(2)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Run(d, crowd.NewPerfect(crowd.DatasetTruth{Data: d}), core.AllPruning())
	}
}

// BenchmarkVotingAccuracyTradeoff quantifies static vs dynamic voting error
// rates at equal budget on one mid-size noisy run.
func BenchmarkVotingAccuracyTradeoff(b *testing.B) {
	d := dataset.MustGenerate(dataset.GenerateConfig{
		N: 300, KnownDims: 4, CrowdDims: 1, Distribution: dataset.Independent,
	}, rand.New(rand.NewSource(3)))
	policies := []struct {
		name   string
		policy voting.Policy
	}{
		{"static", voting.Static{Omega: 5}},
		{"dynamic", voting.NewAnnealed(5)},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			var prec, rec float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				pool, err := crowd.NewPool(crowd.PoolConfig{Reliability: 0.8}, rng)
				if err != nil {
					b.Fatal(err)
				}
				pf := crowd.NewSimulated(crowd.DatasetTruth{Data: d}, pool, rng)
				opts := core.AllPruning()
				opts.Voting = p.policy
				res := core.Run(d, pf, opts)
				prec, rec = metrics.PrecisionRecall(res.Skyline, skyline.OracleSkyline(d), skyline.KnownSkyline(d))
			}
			b.ReportMetric(prec, "precision")
			b.ReportMetric(rec, "recall")
		})
	}
}

// BenchmarkAblationProbeOrder settles the paper's internal contradiction
// about P3's probing order (Algorithm 1 line 11 says ascending freq, the
// Section 3.4 prose says highest first) by measuring all three orderings.
func BenchmarkAblationProbeOrder(b *testing.B) {
	orders := []struct {
		name  string
		order core.ProbeOrder
	}{
		{"freq-desc", core.FreqDescending},
		{"freq-asc", core.FreqAscending},
		{"pair-order", core.PairOrder},
	}
	for _, o := range orders {
		b.Run(o.name, func(b *testing.B) {
			d := dataset.MustGenerate(dataset.GenerateConfig{
				N: 600, KnownDims: 4, CrowdDims: 1, Distribution: dataset.AntiCorrelated,
			}, rand.New(rand.NewSource(5)))
			opts := core.AllPruning()
			opts.ProbeOrder = o.order
			var res *core.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = core.Run(d, crowd.NewPerfect(crowd.DatasetTruth{Data: d}), opts)
			}
			b.ReportMetric(float64(res.Questions), "questions")
		})
	}
}
