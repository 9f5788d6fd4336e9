package experiments

import (
	"fmt"
	"sort"

	"crowdsky/internal/core"
	"crowdsky/internal/dataset"
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

// realPoints is a point per real-life query, x = 1, 2, 3.
func realPoints() []point {
	var ps []point
	for qi, q := range RealQueries {
		ps = append(ps, point{float64(qi + 1), func(int64) *dataset.Dataset { return q.Data() }})
	}
	return ps
}

// realCrowdSky is the method of Section 6.2: CrowdSky under opts with
// static ω = 5 voting.
func realCrowdSky(name string, opts core.Options) method {
	return noisyRun(name, workerReliability, opts, staticVoting)
}

// Fig12 regenerates Figure 12. Panel "a" compares the monetary cost of
// Baseline and CrowdSky on the three queries under the paper's AMT cost
// model ($0.02 per HIT assignment, 5 questions per HIT, ω = 5); panel "b"
// compares the number of rounds of Baseline, ParallelDSet and ParallelSL.
func Fig12(cfg Config, panel string) (*Figure, error) {
	cfg = cfg.withDefaults()
	const xlabel = "query (1=Q1 rectangles, 2=Q2 movies, 3=Q3 MLB)"
	base := noisyBaseline(workerReliability, voting.DefaultOmega)
	switch panel {
	case "a":
		return sweep{realPoints(), []method{base, realCrowdSky("CrowdSky", core.AllPruning())}, []metric{dollars}}.
			figure(cfg, "12a", "monetary cost on real-life queries ($0.02/HIT-assignment, ω=5)", xlabel,
				"monetary cost ($, avg of %d runs)"), nil
	case "b":
		methods := []method{
			base,
			realCrowdSky("ParallelDSet", scheduled(core.ByDominatingSets)),
			realCrowdSky("ParallelSL", scheduled(core.BySkylineLayers)),
		}
		return sweep{realPoints(), methods, []metric{rounds}}.
			figure(cfg, "12b", "number of rounds on real-life queries", xlabel, "rounds (avg of %d runs)"), nil
	}
	return nil, fmt.Errorf("experiments: unknown panel %q (want a=cost or b=rounds)", panel)
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
// candidates. Precision and recall average cfg.Runs runs; the skyline
// named is the first run's, run again to read its names.
func RealAccuracy(cfg Config) ([]RealAccuracyResult, error) {
	cfg = cfg.withDefaults()
	cs := realCrowdSky("", core.AllPruning())
	series := sweep{realPoints(), []method{cs}, []metric{precision, recall}}.run(cfg, "q-accuracy")
	var out []RealAccuracyResult
	for qi, q := range RealQueries {
		d := q.Data()
		var names []string
		for _, t := range cs.run(d, nil, 0, cfg.Seed).Skyline {
			names = append(names, d.Name(t))
		}
		sort.Strings(names)
		out = append(out, RealAccuracyResult{q.ID, series[0].Y[qi], series[1].Y[qi], names})
	}
	return out, nil
}
