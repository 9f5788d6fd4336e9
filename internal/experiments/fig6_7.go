package experiments

import (
	"fmt"
	"math/rand"

	"crowdsky/internal/core"
	"crowdsky/internal/dataset"
	"crowdsky/internal/metrics"
	"crowdsky/internal/skyline"
)

// questionMethods are the five curves of Figures 6 and 7.
var questionMethods = []struct {
	name string
	run  func(d *dataset.Dataset) int
}{
	{"Baseline", func(d *dataset.Dataset) int {
		return core.Baseline(d, perfectPlatform(d), core.TournamentSort, nil).Questions
	}},
	{"DSet", func(d *dataset.Dataset) int {
		return core.Run(d, perfectPlatform(d), core.Options{}).Questions
	}},
	{"P1", func(d *dataset.Dataset) int {
		return core.Run(d, perfectPlatform(d), core.Options{P1: true}).Questions
	}},
	{"P1+P2", func(d *dataset.Dataset) int {
		return core.Run(d, perfectPlatform(d), core.Options{P1: true, P2: true}).Questions
	}},
	{"P1+P2+P3", func(d *dataset.Dataset) int {
		return core.Run(d, perfectPlatform(d), core.AllPruning()).Questions
	}},
}

// questionSweep runs every question-count method over a list of dataset
// configurations and returns one series per method with the given x values.
func questionSweep(cfg Config, xs []float64, configs []dataset.GenerateConfig, figID string) []Series {
	series := make([]Series, len(questionMethods))
	for mi, m := range questionMethods {
		series[mi] = Series{Name: m.name, X: xs}
	}
	for pi, gen := range configs {
		for mi, m := range questionMethods {
			total := 0.0
			for run := 0; run < cfg.Runs; run++ {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(run)))
				d := dataset.MustGenerate(gen, rng)
				total += float64(m.run(d))
			}
			series[mi].Y = append(series[mi].Y, total/float64(cfg.Runs))
			cfg.progressf("fig %s: %s at point %d/%d done (avg %.0f questions)\n",
				figID, m.name, pi+1, len(configs), series[mi].Y[pi])
		}
	}
	return series
}

// questionFigure regenerates one panel of Figure 6 (IND) or 7 (ANT).
// variant selects the sweep: "a" varies cardinality, "b" varies |AK|,
// "c" varies |AC| (Table 4).
func questionFigure(cfg Config, dist dataset.Distribution, variant string) (*Figure, error) {
	cfg = cfg.withDefaults()
	figNum := "6"
	if dist == dataset.AntiCorrelated {
		figNum = "7"
	}
	id := figNum + variant
	var xs []float64
	var configs []dataset.GenerateConfig
	var xlabel string
	switch variant {
	case "a":
		xlabel = "cardinality"
		for _, n := range []int{2000, 4000, 6000, 8000, 10000} {
			sn := cfg.scaled(n)
			xs = append(xs, float64(sn))
			configs = append(configs, dataset.GenerateConfig{N: sn, KnownDims: 4, CrowdDims: 1, Distribution: dist})
		}
	case "b":
		xlabel = "|AK|"
		for dk := 2; dk <= 5; dk++ {
			xs = append(xs, float64(dk))
			configs = append(configs, dataset.GenerateConfig{N: cfg.scaled(4000), KnownDims: dk, CrowdDims: 1, Distribution: dist})
		}
	case "c":
		xlabel = "|AC|"
		for dc := 1; dc <= 3; dc++ {
			xs = append(xs, float64(dc))
			configs = append(configs, dataset.GenerateConfig{N: cfg.scaled(4000), KnownDims: 4, CrowdDims: dc, Distribution: dist})
		}
	default:
		return nil, fmt.Errorf("experiments: unknown variant %q (want a, b or c)", variant)
	}
	return &Figure{
		ID:     id,
		Title:  fmt.Sprintf("number of questions over %s distribution, varying %s", dist, xlabel),
		XLabel: xlabel,
		YLabel: "questions (avg of " + fmt.Sprint(cfg.Runs) + " runs)",
		Series: questionSweep(cfg, xs, configs, id),
	}, nil
}

// Fig6 regenerates Figure 6 (questions, independent distribution).
func Fig6(cfg Config, variant string) (*Figure, error) {
	return questionFigure(cfg, dataset.Independent, variant)
}

// Fig7 regenerates Figure 7 (questions, anti-correlated distribution).
func Fig7(cfg Config, variant string) (*Figure, error) {
	return questionFigure(cfg, dataset.AntiCorrelated, variant)
}

// sanitySkylineCheck re-runs the full-pruning configuration on a fresh
// dataset and verifies the result against the oracle; used by tests to keep
// the sweep harness honest.
func sanitySkylineCheck(gen dataset.GenerateConfig, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.MustGenerate(gen, rng)
	res := core.Run(d, perfectPlatform(d), core.AllPruning())
	if !metrics.SameSet(res.Skyline, skyline.OracleSkyline(d)) {
		return fmt.Errorf("experiments: skyline mismatch on %+v seed %d", gen, seed)
	}
	return nil
}
