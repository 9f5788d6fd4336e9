package experiments

import (
	"math/rand"

	"crowdsky/internal/core"
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/skyline"
	"crowdsky/internal/voting"
)

// This file adds extension experiments beyond the paper's figures,
// exercising the optional features Section 6.1 mentions without evaluating
// (round-robin multi-attribute questioning), the fixed-budget setting of
// the compared work [12], and the tournament/bitonic sorting trade-off of
// Section 3. They are registered as "ext-*" ids in cmd/experiments.

// ExtRoundRobin measures the question savings of the round-robin strategy
// for multiple crowd attributes (Section 6.1: "It is possible to use a
// round-robin strategy for multiple crowd attributes to reduce unnecessary
// questions as they become incomparable in AC, but it is not applied to
// our evaluation"). We apply it: questions versus |AC| with and without
// the strategy, full pruning, perfect crowd.
func ExtRoundRobin(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	rr := core.AllPruning()
	rr.RoundRobinAC = true
	xlabel, points, err := table4Axis(cfg, dataset.Independent, "c")
	if err != nil {
		return nil, err
	}
	methods := []method{perfectRun("CrowdSky", core.AllPruning()), perfectRun("CrowdSky+RoundRobin", rr)}
	return sweep{points, methods, []metric{questions}}.figure(cfg, "ext-roundrobin",
		"round-robin multi-attribute questioning (IND, full pruning)", xlabel, "questions (avg of %d runs)"), nil
}

// ExtBudget traces accuracy against a question budget: the fixed-budget
// setting of Lofi et al. [12] served by CrowdSky's optimistic readout
// (Options.MaxQuestions). Precision climbs with budget while recall stays
// at 1 under a perfect crowd, because the optimistic readout never loses a
// true skyline tuple. The budget is fraction x of a full run's questions.
func ExtBudget(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	budgeted := method{"", func(d *dataset.Dataset, ix *skyline.Index, frac float64, _ int64) *core.Result {
		opts := core.AllPruning()
		opts.Index = ix
		full := core.Run(d, perfectPlatform(d), opts)
		opts.MaxQuestions = max(int(frac*float64(full.Questions)), 1)
		return core.Run(d, perfectPlatform(d), opts)
	}}
	gen := dataset.GenerateConfig{N: cfg.scaled(2000), KnownDims: 4, CrowdDims: 1, Distribution: dataset.Independent}
	points := grid(func(float64) dataset.GenerateConfig { return gen }, 0.1, 0.25, 0.5, 0.75, 1.0)
	return sweep{points, []method{budgeted}, []metric{precision, recall}}.figure(cfg, "ext-budget",
		"accuracy under a question budget (optimistic readout, perfect crowd)",
		"budget as fraction of the full run", "precision/recall (avg of %d runs)"), nil
}

// ExtSorters contrasts the two crowd-powered sorting baselines of
// Section 3: tournament sort (fewest comparisons) against the bitonic
// network (fewest rounds), on the same datasets.
func ExtSorters(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	var methods []method
	for _, algo := range []core.SortAlgorithm{core.TournamentSort, core.BitonicSort} {
		methods = append(methods, method{algo.String(), func(d *dataset.Dataset, _ *skyline.Index, _ float64, _ int64) *core.Result {
			return core.Baseline(d, perfectPlatform(d), algo, nil)
		}})
	}
	points := cardinalities(cfg, 2, dataset.Independent, 500, 1000, 2000)
	return sweep{points, methods, []metric{questions, rounds}}.figure(cfg, "ext-sorters",
		"crowd-powered sorting baselines: cost vs latency", "cardinality", "questions / rounds (avg of %d runs)"), nil
}

// ExtScreening measures the agreement-based worker screening (the
// programmatic AMT "Masters" filter, crowd.Quality) on pools with a
// growing spammer fraction: accuracy with and without screening at equal
// ω. The paper took screening as given ("we only permitted Masters
// workers", Section 6.2); this experiment shows what it buys. Both
// methods draw the same pool, of 120 workers with reliability 0.9 and
// spammer fraction x, from the seed runSeed*31+11.
func ExtScreening(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	screening := func(name string, screen bool) method {
		return method{name, func(d *dataset.Dataset, ix *skyline.Index, spamFrac float64, seed int64) *core.Result {
			rng := rand.New(rand.NewSource(seed*31 + 11))
			pool, err := crowd.NewPool(crowd.PoolConfig{Size: 120, Reliability: 0.9, SpammerFraction: spamFrac}, rng)
			if err != nil {
				panic(err) // static config
			}
			pf := crowd.NewSimulated(crowd.DatasetTruth{Data: d}, pool, rng)
			if screen {
				pf.Quality = crowd.NewQuality()
			}
			opts := core.AllPruning()
			opts.Voting = voting.Static{Omega: voting.DefaultOmega}
			opts.Index = ix
			return core.Run(d, pf, opts)
		}}
	}
	gen := dataset.GenerateConfig{N: cfg.scaled(800), KnownDims: 4, CrowdDims: 1, Distribution: dataset.Independent}
	points := grid(func(float64) dataset.GenerateConfig { return gen }, 0.0, 0.2, 0.4)
	methods := []method{screening("no screening", false), screening("screening", true)}
	return sweep{points, methods, []metric{f1}}.figure(cfg, "ext-screening",
		"agreement-based worker screening under spam (F1, ω=5)", "spammer fraction",
		"F1 of the crowdsourced skyline (avg of %d runs)"), nil
}
