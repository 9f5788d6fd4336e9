package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"crowdsky/internal/core"
	"crowdsky/internal/dataset"
	"crowdsky/internal/metrics"
	"crowdsky/internal/skyline"
)

// sweep is one figure of the evaluation: a grid of points, the methods
// run at every point, and the metrics read off each run.
type sweep struct {
	points  []point
	methods []method
	metrics []metric
}

// point is one x value of a sweep and the dataset a run at it uses, built
// from the run seed.
type point struct {
	x    float64
	data func(seed int64) *dataset.Dataset
}

// method is one curve family: it runs on the point's dataset d, with ix
// the dominance index over d shared by every method (pass it on through
// core.Options.Index), and seed the run seed.
type method struct {
	name string
	run  func(d *dataset.Dataset, ix *skyline.Index, x float64, seed int64) *core.Result
}

// metric is what a sweep reads off each result; g grades a skyline
// against the ground truth of the run's dataset.
type metric struct {
	name string
	of   func(r *core.Result, g *grader) float64
}

var (
	questions = metric{"questions", func(r *core.Result, _ *grader) float64 { return float64(r.Questions) }}
	rounds    = metric{"rounds", func(r *core.Result, _ *grader) float64 { return float64(r.Rounds) }}
	dollars   = metric{"dollars", func(r *core.Result, _ *grader) float64 { return r.Cost }}
	precision = metric{"precision", func(r *core.Result, g *grader) float64 { p, _ := g.grade(r); return p }}
	recall    = metric{"recall", func(r *core.Result, g *grader) float64 { _, rec := g.grade(r); return rec }}
	f1        = metric{"f1", func(r *core.Result, g *grader) float64 { return metrics.F1(g.grade(r)) }}
)

// grader grades skylines over one dataset instance against the oracle,
// which it computes on first use.
type grader struct {
	d           *dataset.Dataset
	want, known []int
}

func (g *grader) grade(r *core.Result) (precision, recall float64) {
	if g.want == nil {
		g.want, g.known = skyline.OracleSkyline(g.d), skyline.KnownSkyline(g.d)
	}
	return metrics.PrecisionRecall(r.Skyline, g.want, g.known)
}

// run executes the sweep and returns one series per method and metric,
// method-major. At every point each run builds one dataset from the seed
// cfg.Seed+run and one dominance index, shared by every method, and each
// series averages its metric over cfg.Runs runs. A series is named after
// its method, with the metric appended when the sweep reads several (the
// metric alone for an unnamed method).
func (s sweep) run(cfg Config, id string) []Series {
	var series []Series
	for _, m := range s.methods {
		for _, k := range s.metrics {
			name := m.name
			if len(s.metrics) > 1 {
				name = strings.TrimSpace(m.name + " " + k.name)
			}
			series = append(series, Series{Name: name, Metric: k.name})
		}
	}
	for pi, p := range s.points {
		sums := make([]float64, len(series))
		for run := 0; run < cfg.Runs; run++ {
			seed := cfg.Seed + int64(run)
			d := p.data(seed)
			ix := skyline.NewIndex(d)
			g := &grader{d: d}
			for mi, m := range s.methods {
				res := m.run(d, ix, p.x, seed)
				for ki, k := range s.metrics {
					sums[mi*len(s.metrics)+ki] += k.of(res, g)
				}
			}
		}
		line := fmt.Sprintf("%s: point %d/%d (x=%s) done:", id, pi+1, len(s.points), trimFloat(p.x))
		for i := range series {
			series[i].X = append(series[i].X, p.x)
			series[i].Y = append(series[i].Y, sums[i]/float64(cfg.Runs))
			line += fmt.Sprintf(" %s=%s", series[i].Name, trimFloat(series[i].Y[pi]))
		}
		cfg.progressf("%s\n", line)
	}
	return series
}

// figure runs the sweep into a Figure; ylabel's %d is the number of runs.
func (s sweep) figure(cfg Config, id, title, xlabel, ylabel string) *Figure {
	return &Figure{ID: id, Title: title, XLabel: xlabel, YLabel: fmt.Sprintf(ylabel, cfg.Runs), Series: s.run(cfg, id)}
}

// grid is a point per x over a dataset of shape gen(x), generated from
// the run seed.
func grid(gen func(x float64) dataset.GenerateConfig, xs ...float64) []point {
	ps := make([]point, len(xs))
	for i, x := range xs {
		g := gen(x)
		ps[i] = point{x, func(seed int64) *dataset.Dataset { return dataset.MustGenerate(g, rand.New(rand.NewSource(seed))) }}
	}
	return ps
}

// cardinalities is a grid over the paper cardinalities ns, scaled by
// cfg.Scale, with |AK| dk, |AC| = 1 and distribution dist.
func cardinalities(cfg Config, dk int, dist dataset.Distribution, ns ...int) []point {
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(cfg.scaled(n))
	}
	return grid(func(x float64) dataset.GenerateConfig {
		return dataset.GenerateConfig{N: int(x), KnownDims: dk, CrowdDims: 1, Distribution: dist}
	}, xs...)
}

// table4Axis is one of Table 4's sweeps around n = 4000, |AK| = 4 and
// |AC| = 1: axis "a" varies the cardinality, "b" |AK| and "c" |AC|.
func table4Axis(cfg Config, dist dataset.Distribution, axis string) (xlabel string, points []point, err error) {
	n := cfg.scaled(4000)
	switch axis {
	case "a":
		return "cardinality", cardinalities(cfg, 4, dist, 2000, 4000, 6000, 8000, 10000), nil
	case "b":
		return "|AK|", grid(func(x float64) dataset.GenerateConfig {
			return dataset.GenerateConfig{N: n, KnownDims: int(x), CrowdDims: 1, Distribution: dist}
		}, 2, 3, 4, 5), nil
	case "c":
		return "|AC|", grid(func(x float64) dataset.GenerateConfig {
			return dataset.GenerateConfig{N: n, KnownDims: 4, CrowdDims: int(x), Distribution: dist}
		}, 1, 2, 3), nil
	}
	return "", nil, fmt.Errorf("experiments: unknown variant %q (want a, b or c)", axis)
}

// perfectRun is a method running core.Run with opts and the shared index
// against a perfect crowd.
func perfectRun(name string, opts core.Options) method {
	return method{name, func(d *dataset.Dataset, ix *skyline.Index, _ float64, _ int64) *core.Result {
		o := opts
		o.Index = ix
		return core.Run(d, perfectPlatform(d), o)
	}}
}

// scheduled is full pruning under schedule s.
func scheduled(s core.Schedule) core.Options {
	opts := core.AllPruning()
	opts.Schedule = s
	return opts
}
