// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each figure is a sweep: the parameter grid the
// paper describes (Table 4), the methods it compares and the metric it
// plots, run by one engine into a Figure whose series carry the paper's
// methods, axes and units. Registry lists every experiment; the
// cmd/experiments binary renders them as text, and BenchmarkFigure in
// bench_test.go at the module root runs each figure as a sub-benchmark.
//
// Runs are deterministic: every random choice derives from Config.Seed plus
// the run index, and results are averaged over Config.Runs runs (the paper
// averages 10).
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
)

// Config controls an experiment run.
type Config struct {
	// Runs is how many independently seeded repetitions are averaged.
	// The paper uses 10; the default used by cmd/experiments is 3.
	Runs int
	// Seed is the base random seed; run i uses Seed + i.
	Seed int64
	// Scale multiplies the paper's cardinality grid, allowing quick
	// reduced-scale regenerations (0 < Scale ≤ 1; 1 is paper scale).
	Scale float64
	// Progress, when non-nil, receives one line per completed sweep point.
	Progress io.Writer
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Runs <= 0 {
		c.Runs = 3
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

func (c Config) progressf(format string, args ...any) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format, args...)
	}
}

// scaled applies the scale factor to a paper cardinality, keeping at least
// 16 tuples.
func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 16 {
		v = 16
	}
	return v
}

// Series is one method's curve in a figure.
type Series struct {
	Name   string
	Metric string // what Y measures: questions, rounds, dollars, precision, recall or f1
	X      []float64
	Y      []float64
}

// Figure is a regenerated paper figure (or table rendered as series).
type Figure struct {
	ID     string // e.g. "6a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Render writes the figure as an aligned text table, one row per x value
// and one column per series — the closest text analogue of the paper's
// plots.
func (f *Figure) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Figure %s: %s\n", f.ID, f.Title); err != nil {
		return err
	}
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	rows := [][]string{cols}
	if len(f.Series) > 0 {
		for i := range f.Series[0].X {
			row := []string{trimFloat(f.Series[0].X[i])}
			for _, s := range f.Series {
				if i < len(s.Y) {
					row = append(row, trimFloat(s.Y[i]))
				} else {
					row = append(row, "-")
				}
			}
			rows = append(rows, row)
		}
	}
	widths := make([]int, len(cols))
	for _, row := range rows {
		for j, cell := range row {
			if len(cell) > widths[j] {
				widths[j] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for j, cell := range row {
			if j > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(cell, widths[j]))
		}
		if _, err := fmt.Fprintf(w, "  %s\n", strings.TrimRight(b.String(), " ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "  (y-values: "+f.YLabel+")")
	return err
}

// WriteCSV writes the figure as a CSV file with an x column followed by
// one column per series — the machine-readable companion of Render for
// plotting with external tools.
func (f *Figure) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	if len(f.Series) > 0 {
		for i := range f.Series[0].X {
			row := []string{strconv.FormatFloat(f.Series[0].X[i], 'g', -1, 64)}
			for _, s := range f.Series {
				if i < len(s.Y) {
					row = append(row, strconv.FormatFloat(s.Y[i], 'g', -1, 64))
				} else {
					row = append(row, "")
				}
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		s = "0"
	}
	return s
}

func pad(s string, w int) string {
	for len(s) < w {
		s = " " + s
	}
	return s
}

// perfectPlatform builds a noiseless platform for the counting experiments
// of Figures 6-9.
func perfectPlatform(d *dataset.Dataset) crowd.Platform {
	return crowd.NewPerfect(crowd.DatasetTruth{Data: d})
}

// noisyPlatform builds a majority-voted platform with worker reliability p
// (the accuracy experiments of Figures 10-11 use p = 0.8).
func noisyPlatform(d *dataset.Dataset, p float64, seed int64) *crowd.Simulated {
	rng := rand.New(rand.NewSource(seed))
	pool, err := crowd.NewPool(crowd.PoolConfig{Reliability: p}, rng)
	if err != nil {
		panic(err) // static config, cannot fail
	}
	return crowd.NewSimulated(crowd.DatasetTruth{Data: d}, pool, rng)
}
