package experiments

import (
	"fmt"
	"sort"

	"crowdsky/internal/core"
	"crowdsky/internal/dataset"
	"crowdsky/internal/metrics"
	"crowdsky/internal/skyline"
	"crowdsky/internal/voting"
)

// RealQuery is one of the three real-life queries of Section 6.2.
type RealQuery struct {
	ID   string // "Q1", "Q2", "Q3"
	Name string
	Data func() *dataset.Dataset
}

// RealQueries lists Q1 (rectangles), Q2 (movies) and Q3 (MLB pitchers).
var RealQueries = []RealQuery{
	{"Q1", "rectangles (width/height known, area crowdsourced)", dataset.Rectangles},
	{"Q2", "IMDb-style movies (box office/year known, rating crowdsourced)", dataset.Movies},
	{"Q3", "MLB pitchers (wins/SO/ERA known, value crowdsourced)", dataset.MLBPitchers},
}

// workerReliability is the simulated stand-in for AMT Masters workers in
// the real-life experiments: the Masters qualification filters spam, so
// individual reliability is high.
const workerReliability = 0.9

// Fig12 regenerates Figure 12. Panel "a" compares the monetary cost of
// Baseline and CrowdSky on the three queries under the paper's AMT cost
// model ($0.02 per HIT assignment, 5 questions per HIT, ω = 5); panel "b"
// compares the number of rounds of Baseline, ParallelDSet and ParallelSL.
func Fig12(cfg Config, panel string) (*Figure, error) {
	cfg = cfg.withDefaults()
	switch panel {
	case "a":
		return fig12Cost(cfg)
	case "b":
		return fig12Rounds(cfg)
	}
	return nil, fmt.Errorf("experiments: unknown panel %q (want a=cost or b=rounds)", panel)
}

func fig12Cost(cfg Config) (*Figure, error) {
	omega := voting.Static{Omega: DefaultOmega}
	series := []Series{{Name: "Baseline"}, {Name: "CrowdSky"}}
	for qi, q := range RealQueries {
		x := float64(qi + 1)
		var base, cs []float64
		for run := 0; run < cfg.Runs; run++ {
			seed := cfg.Seed + int64(run)
			d := q.Data()
			base = append(base, core.Baseline(d, noisyPlatform(d, workerReliability, seed), core.TournamentSort, omega).Cost)
			d = q.Data()
			opts := core.AllPruning()
			opts.Voting = omega
			cs = append(cs, core.Run(d, noisyPlatform(d, workerReliability, seed), opts).Cost)
		}
		series[0].X = append(series[0].X, x)
		series[0].Y = append(series[0].Y, metrics.Summarize(base).Mean)
		series[1].X = append(series[1].X, x)
		series[1].Y = append(series[1].Y, metrics.Summarize(cs).Mean)
		cfg.progressf("fig 12a: %s done (baseline $%.2f, crowdsky $%.2f)\n",
			q.ID, series[0].Y[qi], series[1].Y[qi])
	}
	return &Figure{
		ID:     "12a",
		Title:  "monetary cost on real-life queries ($0.02/HIT-assignment, ω=5)",
		XLabel: "query (1=Q1 rectangles, 2=Q2 movies, 3=Q3 MLB)",
		YLabel: "monetary cost ($, avg of " + fmt.Sprint(cfg.Runs) + " runs)",
		Series: series,
	}, nil
}

func fig12Rounds(cfg Config) (*Figure, error) {
	omega := voting.Static{Omega: DefaultOmega}
	rounds := func(s core.Schedule) func(d *dataset.Dataset, seed int64) int {
		return func(d *dataset.Dataset, seed int64) int {
			opts := core.AllPruning()
			opts.Schedule = s
			opts.Voting = omega
			return core.Run(d, noisyPlatform(d, workerReliability, seed), opts).Rounds
		}
	}
	methods := []struct {
		name string
		run  func(d *dataset.Dataset, seed int64) int
	}{
		{"Baseline", func(d *dataset.Dataset, seed int64) int {
			return core.Baseline(d, noisyPlatform(d, workerReliability, seed), core.TournamentSort, omega).Rounds
		}},
		{"ParallelDSet", rounds(core.ByDominatingSets)},
		{"ParallelSL", rounds(core.BySkylineLayers)},
	}
	series := make([]Series, len(methods))
	for mi, m := range methods {
		series[mi] = Series{Name: m.name}
		for qi, q := range RealQueries {
			var vals []float64
			for run := 0; run < cfg.Runs; run++ {
				seed := cfg.Seed + int64(run)
				vals = append(vals, float64(m.run(q.Data(), seed)))
			}
			series[mi].X = append(series[mi].X, float64(qi+1))
			series[mi].Y = append(series[mi].Y, metrics.Summarize(vals).Mean)
			cfg.progressf("fig 12b: %s on %s done (avg %.0f rounds)\n", m.name, q.ID, series[mi].Y[qi])
		}
	}
	return &Figure{
		ID:     "12b",
		Title:  "number of rounds on real-life queries",
		XLabel: "query (1=Q1 rectangles, 2=Q2 movies, 3=Q3 MLB)",
		YLabel: "rounds (avg of " + fmt.Sprint(cfg.Runs) + " runs)",
		Series: series,
	}, nil
}

// RealAccuracyResult reports the Section 6.2 accuracy outcome of one query.
type RealAccuracyResult struct {
	Query     string
	Precision float64
	Recall    float64
	Skyline   []string // names of the crowdsourced skyline tuples
}

// RealAccuracy reproduces the accuracy discussion of Section 6.2: CrowdSky
// with static ω = 5 voting on each real-life query, graded against the
// latent ground truth. The paper reports Q1 at precision = recall = 1.0,
// Q2's skyline as five specific movies and Q3's as four Cy Young
// candidates.
func RealAccuracy(cfg Config) ([]RealAccuracyResult, error) {
	cfg = cfg.withDefaults()
	var out []RealAccuracyResult
	for _, q := range RealQueries {
		var precs, recs []float64
		var names []string
		for run := 0; run < cfg.Runs; run++ {
			seed := cfg.Seed + int64(run)
			d := q.Data()
			opts := core.AllPruning()
			opts.Voting = voting.Static{Omega: DefaultOmega}
			res := core.Run(d, noisyPlatform(d, workerReliability, seed), opts)
			prec, rec := metrics.PrecisionRecall(res.Skyline, skyline.OracleSkyline(d), skyline.KnownSkyline(d))
			precs = append(precs, prec)
			recs = append(recs, rec)
			if run == 0 {
				for _, tidx := range res.Skyline {
					names = append(names, d.Name(tidx))
				}
				sort.Strings(names)
			}
		}
		out = append(out, RealAccuracyResult{
			Query:     q.ID,
			Precision: metrics.Summarize(precs).Mean,
			Recall:    metrics.Summarize(recs).Mean,
			Skyline:   names,
		})
	}
	return out, nil
}
