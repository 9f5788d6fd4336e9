package experiments

import (
	"fmt"

	"crowdsky/internal/core"
	"crowdsky/internal/dataset"
	"crowdsky/internal/skyline"
)

// baseline is the sort-based Baseline (tournament sort, one worker per
// question) against a perfect crowd, the first curve of Figures 6-9.
var baseline = method{"Baseline", func(d *dataset.Dataset, _ *skyline.Index, _ float64, _ int64) *core.Result {
	return core.Baseline(d, perfectPlatform(d), core.TournamentSort, nil)
}}

// questionMethods are the five curves of Figures 6 and 7.
var questionMethods = []method{
	baseline,
	perfectRun("DSet", core.Options{}),
	perfectRun("P1", core.Options{P1: true}),
	perfectRun("P1+P2", core.Options{P1: true, P2: true}),
	perfectRun("P1+P2+P3", core.AllPruning()),
}

// roundMethods are the four curves of Figures 8 and 9 (latency).
var roundMethods = []method{
	baseline,
	perfectRun("Serial", scheduled(core.Serial)),
	perfectRun("ParallelDSet", scheduled(core.ByDominatingSets)),
	perfectRun("ParallelSL", scheduled(core.BySkylineLayers)),
}

// questionFigure regenerates one panel of Figure 6 (IND) or 7 (ANT).
// variant selects the sweep: "a" varies cardinality, "b" varies |AK|,
// "c" varies |AC| (Table 4).
func questionFigure(cfg Config, fig string, dist dataset.Distribution, variant string) (*Figure, error) {
	cfg = cfg.withDefaults()
	xlabel, points, err := table4Axis(cfg, dist, variant)
	if err != nil {
		return nil, err
	}
	return sweep{points, questionMethods, []metric{questions}}.figure(cfg, fig+variant,
		fmt.Sprintf("number of questions over %s distribution, varying %s", dist, xlabel),
		xlabel, "questions (avg of %d runs)"), nil
}

// Fig6 regenerates Figure 6 (questions, independent distribution).
func Fig6(cfg Config, variant string) (*Figure, error) {
	return questionFigure(cfg, "6", dataset.Independent, variant)
}

// Fig7 regenerates Figure 7 (questions, anti-correlated distribution).
func Fig7(cfg Config, variant string) (*Figure, error) {
	return questionFigure(cfg, "7", dataset.AntiCorrelated, variant)
}

// roundsFigure regenerates one panel of Figure 8 (rounds over Table 4's
// axis "a", the cardinality) or Figure 9 (axis "b", |AK|); panel "a" is
// IND, "b" is ANT.
func roundsFigure(cfg Config, fig, axis, panel string) (*Figure, error) {
	cfg = cfg.withDefaults()
	dist, ok := map[string]dataset.Distribution{"a": dataset.Independent, "b": dataset.AntiCorrelated}[panel]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown panel %q (want a or b)", panel)
	}
	xlabel, points, err := table4Axis(cfg, dist, axis)
	if err != nil {
		return nil, err
	}
	return sweep{points, roundMethods, []metric{rounds}}.figure(cfg, fig+panel,
		fmt.Sprintf("number of rounds over %s distribution, varying %s", dist, xlabel),
		xlabel, "rounds (avg of %d runs, log-scaled in the paper)"), nil
}

// Fig8 regenerates Figure 8 (rounds vs cardinality); panel "a" = IND,
// "b" = ANT.
func Fig8(cfg Config, panel string) (*Figure, error) { return roundsFigure(cfg, "8", "a", panel) }

// Fig9 regenerates Figure 9 (rounds vs |AK|); panel "a" = IND, "b" = ANT.
func Fig9(cfg Config, panel string) (*Figure, error) { return roundsFigure(cfg, "9", "b", panel) }
