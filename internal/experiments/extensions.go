package experiments

import (
	"fmt"
	"math/rand"

	"crowdsky/internal/core"
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/metrics"
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
	plain := Series{Name: "CrowdSky"}
	rr := Series{Name: "CrowdSky+RoundRobin"}
	for dc := 1; dc <= 3; dc++ {
		gen := dataset.GenerateConfig{N: cfg.scaled(4000), KnownDims: 4, CrowdDims: dc, Distribution: dataset.Independent}
		var qPlain, qRR float64
		for run := 0; run < cfg.Runs; run++ {
			d := dataset.MustGenerate(gen, rand.New(rand.NewSource(cfg.Seed+int64(run))))
			qPlain += float64(core.Run(d, perfectPlatform(d), core.AllPruning()).Questions)
			opts := core.AllPruning()
			opts.RoundRobinAC = true
			qRR += float64(core.Run(d, perfectPlatform(d), opts).Questions)
		}
		plain.X = append(plain.X, float64(dc))
		plain.Y = append(plain.Y, qPlain/float64(cfg.Runs))
		rr.X = append(rr.X, float64(dc))
		rr.Y = append(rr.Y, qRR/float64(cfg.Runs))
		cfg.progressf("ext-roundrobin: |AC|=%d done (%.0f vs %.0f questions)\n", dc, plain.Y[dc-1], rr.Y[dc-1])
	}
	return &Figure{
		ID:     "ext-roundrobin",
		Title:  "round-robin multi-attribute questioning (IND, full pruning)",
		XLabel: "|AC|",
		YLabel: "questions (avg of " + fmt.Sprint(cfg.Runs) + " runs)",
		Series: []Series{plain, rr},
	}, nil
}

// ExtBudget traces accuracy against a question budget: the fixed-budget
// setting of Lofi et al. [12] served by CrowdSky's optimistic readout
// (Options.MaxQuestions). Precision climbs with budget while recall stays
// at 1 under a perfect crowd, because the optimistic readout never loses a
// true skyline tuple.
func ExtBudget(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	gen := dataset.GenerateConfig{N: cfg.scaled(2000), KnownDims: 4, CrowdDims: 1, Distribution: dataset.Independent}
	precision := Series{Name: "precision"}
	recall := Series{Name: "recall"}
	fractions := []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	for _, frac := range fractions {
		var ps, rs float64
		for run := 0; run < cfg.Runs; run++ {
			d := dataset.MustGenerate(gen, rand.New(rand.NewSource(cfg.Seed+int64(run))))
			full := core.Run(d, perfectPlatform(d), core.AllPruning())
			budget := int(frac * float64(full.Questions))
			if budget < 1 {
				budget = 1
			}
			opts := core.AllPruning()
			opts.MaxQuestions = budget
			res := core.Run(d, perfectPlatform(d), opts)
			p, r := metrics.PrecisionRecall(res.Skyline, skyline.OracleSkyline(d), skyline.KnownSkyline(d))
			ps += p
			rs += r
		}
		precision.X = append(precision.X, frac)
		precision.Y = append(precision.Y, ps/float64(cfg.Runs))
		recall.X = append(recall.X, frac)
		recall.Y = append(recall.Y, rs/float64(cfg.Runs))
		cfg.progressf("ext-budget: fraction %.2f done\n", frac)
	}
	return &Figure{
		ID:     "ext-budget",
		Title:  "accuracy under a question budget (optimistic readout, perfect crowd)",
		XLabel: "budget as fraction of the full run",
		YLabel: "precision/recall (avg of " + fmt.Sprint(cfg.Runs) + " runs)",
		Series: []Series{precision, recall},
	}, nil
}

// ExtSorters contrasts the two crowd-powered sorting baselines of
// Section 3: tournament sort (fewest comparisons) against the bitonic
// network (fewest rounds), on the same datasets.
func ExtSorters(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	tq := Series{Name: "tournament questions"}
	tr := Series{Name: "tournament rounds"}
	bq := Series{Name: "bitonic questions"}
	br := Series{Name: "bitonic rounds"}
	for _, n := range []int{500, 1000, 2000} {
		sn := cfg.scaled(n)
		gen := dataset.GenerateConfig{N: sn, KnownDims: 2, CrowdDims: 1, Distribution: dataset.Independent}
		var tqs, trs, bqs, brs float64
		for run := 0; run < cfg.Runs; run++ {
			d := dataset.MustGenerate(gen, rand.New(rand.NewSource(cfg.Seed+int64(run))))
			rt := core.Baseline(d, perfectPlatform(d), core.TournamentSort, nil)
			rb := core.Baseline(d, perfectPlatform(d), core.BitonicSort, nil)
			tqs += float64(rt.Questions)
			trs += float64(rt.Rounds)
			bqs += float64(rb.Questions)
			brs += float64(rb.Rounds)
		}
		x := float64(sn)
		for _, s := range []*Series{&tq, &tr, &bq, &br} {
			s.X = append(s.X, x)
		}
		tq.Y = append(tq.Y, tqs/float64(cfg.Runs))
		tr.Y = append(tr.Y, trs/float64(cfg.Runs))
		bq.Y = append(bq.Y, bqs/float64(cfg.Runs))
		br.Y = append(br.Y, brs/float64(cfg.Runs))
		cfg.progressf("ext-sorters: n=%d done\n", sn)
	}
	return &Figure{
		ID:     "ext-sorters",
		Title:  "crowd-powered sorting baselines: cost vs latency",
		XLabel: "cardinality",
		YLabel: "questions / rounds (avg of " + fmt.Sprint(cfg.Runs) + " runs)",
		Series: []Series{tq, tr, bq, br},
	}, nil
}

// ExtScreening measures the agreement-based worker screening (the
// programmatic AMT "Masters" filter, crowd.Quality) on pools with a
// growing spammer fraction: accuracy with and without screening at equal
// ω. The paper took screening as given ("we only permitted Masters
// workers", Section 6.2); this experiment shows what it buys.
func ExtScreening(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	plain := Series{Name: "no screening"}
	screened := Series{Name: "screening"}
	gen := dataset.GenerateConfig{N: cfg.scaled(800), KnownDims: 4, CrowdDims: 1, Distribution: dataset.Independent}
	for _, spamFrac := range []float64{0.0, 0.2, 0.4} {
		var plainF1, screenedF1 float64
		for run := 0; run < cfg.Runs; run++ {
			seed := cfg.Seed + int64(run)
			d := dataset.MustGenerate(gen, rand.New(rand.NewSource(seed)))
			want := skyline.OracleSkyline(d)
			known := skyline.KnownSkyline(d)
			measure := func(screen bool) float64 {
				rng := rand.New(rand.NewSource(seed*31 + 11))
				pool, err := crowd.NewPool(crowd.PoolConfig{
					Size: 120, Reliability: 0.9, SpammerFraction: spamFrac,
				}, rng)
				if err != nil {
					panic(err) // static config
				}
				pf := crowd.NewSimulated(crowd.DatasetTruth{Data: d}, pool, rng)
				if screen {
					pf.Quality = crowd.NewQuality()
				}
				opts := core.AllPruning()
				opts.Voting = voting.Static{Omega: DefaultOmega}
				res := core.Run(d, pf, opts)
				p, r := metrics.PrecisionRecall(res.Skyline, want, known)
				return metrics.F1(p, r)
			}
			plainF1 += measure(false)
			screenedF1 += measure(true)
		}
		plain.X = append(plain.X, spamFrac)
		plain.Y = append(plain.Y, plainF1/float64(cfg.Runs))
		screened.X = append(screened.X, spamFrac)
		screened.Y = append(screened.Y, screenedF1/float64(cfg.Runs))
		cfg.progressf("ext-screening: spam %.1f done (%.3f vs %.3f F1)\n",
			spamFrac, plain.Y[len(plain.Y)-1], screened.Y[len(screened.Y)-1])
	}
	return &Figure{
		ID:     "ext-screening",
		Title:  "agreement-based worker screening under spam (F1, ω=5)",
		XLabel: "spammer fraction",
		YLabel: "F1 of the crowdsourced skyline (avg of " + fmt.Sprint(cfg.Runs) + " runs)",
		Series: []Series{plain, screened},
	}, nil
}
