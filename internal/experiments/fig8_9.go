package experiments

import (
	"fmt"
	"math/rand"

	"crowdsky/internal/core"
	"crowdsky/internal/dataset"
)

// roundMethods are the four curves of Figures 8 and 9 (latency).
var roundMethods = []struct {
	name string
	run  func(d *dataset.Dataset) int
}{
	{"Baseline", func(d *dataset.Dataset) int {
		return core.Baseline(d, perfectPlatform(d), core.TournamentSort, nil).Rounds
	}},
	{"Serial", scheduleRounds(core.Serial)},
	{"ParallelDSet", scheduleRounds(core.ByDominatingSets)},
	{"ParallelSL", scheduleRounds(core.BySkylineLayers)},
}

// scheduleRounds counts the rounds of a full-pruning run under s.
func scheduleRounds(s core.Schedule) func(d *dataset.Dataset) int {
	return func(d *dataset.Dataset) int {
		opts := core.AllPruning()
		opts.Schedule = s
		return core.Run(d, perfectPlatform(d), opts).Rounds
	}
}

func roundSweep(cfg Config, xs []float64, configs []dataset.GenerateConfig, figID string) []Series {
	series := make([]Series, len(roundMethods))
	for mi, m := range roundMethods {
		series[mi] = Series{Name: m.name, X: xs}
	}
	for pi, gen := range configs {
		for mi, m := range roundMethods {
			total := 0.0
			for run := 0; run < cfg.Runs; run++ {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(run)))
				d := dataset.MustGenerate(gen, rng)
				total += float64(m.run(d))
			}
			series[mi].Y = append(series[mi].Y, total/float64(cfg.Runs))
			cfg.progressf("fig %s: %s at point %d/%d done (avg %.0f rounds)\n",
				figID, m.name, pi+1, len(configs), series[mi].Y[pi])
		}
	}
	return series
}

// roundsFigure regenerates one panel of Figure 8 (rounds vs cardinality) or
// Figure 9 (rounds vs |AK|); panel "a" is IND, "b" is ANT.
func roundsFigure(cfg Config, fig string, panel string) (*Figure, error) {
	cfg = cfg.withDefaults()
	var dist dataset.Distribution
	switch panel {
	case "a":
		dist = dataset.Independent
	case "b":
		dist = dataset.AntiCorrelated
	default:
		return nil, fmt.Errorf("experiments: unknown panel %q (want a or b)", panel)
	}
	var xs []float64
	var configs []dataset.GenerateConfig
	var xlabel string
	switch fig {
	case "8":
		xlabel = "cardinality"
		for _, n := range []int{2000, 4000, 6000, 8000, 10000} {
			sn := cfg.scaled(n)
			xs = append(xs, float64(sn))
			configs = append(configs, dataset.GenerateConfig{N: sn, KnownDims: 4, CrowdDims: 1, Distribution: dist})
		}
	case "9":
		xlabel = "|AK|"
		for dk := 2; dk <= 5; dk++ {
			xs = append(xs, float64(dk))
			configs = append(configs, dataset.GenerateConfig{N: cfg.scaled(4000), KnownDims: dk, CrowdDims: 1, Distribution: dist})
		}
	default:
		return nil, fmt.Errorf("experiments: unknown rounds figure %q (want 8 or 9)", fig)
	}
	id := fig + panel
	return &Figure{
		ID:     id,
		Title:  fmt.Sprintf("number of rounds over %s distribution, varying %s", dist, xlabel),
		XLabel: xlabel,
		YLabel: "rounds (avg of " + fmt.Sprint(cfg.Runs) + " runs, log-scaled in the paper)",
		Series: roundSweep(cfg, xs, configs, id),
	}, nil
}

// Fig8 regenerates Figure 8 (rounds vs cardinality); panel "a" = IND,
// "b" = ANT.
func Fig8(cfg Config, panel string) (*Figure, error) { return roundsFigure(cfg, "8", panel) }

// Fig9 regenerates Figure 9 (rounds vs |AK|); panel "a" = IND, "b" = ANT.
func Fig9(cfg Config, panel string) (*Figure, error) { return roundsFigure(cfg, "9", panel) }
