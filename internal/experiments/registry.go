package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Experiment is one regenerable table or figure of the evaluation. A
// figure experiment has Figure; a text-only one (the toy tables and the
// real-life accuracy report) has Text.
type Experiment struct {
	ID     string // figure/table number as the paper names it
	Figure func(Config) (*Figure, error)
	Text   func(Config, io.Writer) error
}

// Run writes the experiment's text rendering to w.
func (e Experiment) Run(cfg Config, w io.Writer) error {
	if e.Figure == nil {
		return e.Text(cfg, w)
	}
	fig, err := e.Figure(cfg)
	if err != nil {
		return err
	}
	return fig.Render(w)
}

// panel binds a figure's panel (or variant) argument.
func panel(f func(Config, string) (*Figure, error), p string) func(Config) (*Figure, error) {
	return func(cfg Config) (*Figure, error) { return f(cfg, p) }
}

// Registry lists every experiment, in the order cmd/experiments -list and
// -all use: the toy tables, Figures 6-12, the extensions, and the
// real-life accuracy report.
var Registry = []Experiment{
	{ID: "table1", Text: func(_ Config, w io.Writer) error { return RenderTable1(w) }},
	{ID: "table2", Text: func(_ Config, w io.Writer) error { return RenderTable2(w) }},
	{ID: "table3", Text: func(_ Config, w io.Writer) error { return RenderTable3(w) }},
	{ID: "6a", Figure: panel(Fig6, "a")},
	{ID: "6b", Figure: panel(Fig6, "b")},
	{ID: "6c", Figure: panel(Fig6, "c")},
	{ID: "7a", Figure: panel(Fig7, "a")},
	{ID: "7b", Figure: panel(Fig7, "b")},
	{ID: "7c", Figure: panel(Fig7, "c")},
	{ID: "8a", Figure: panel(Fig8, "a")},
	{ID: "8b", Figure: panel(Fig8, "b")},
	{ID: "9a", Figure: panel(Fig9, "a")},
	{ID: "9b", Figure: panel(Fig9, "b")},
	{ID: "10a", Figure: panel(Fig10, "a")},
	{ID: "10b", Figure: panel(Fig10, "b")},
	{ID: "11a", Figure: panel(Fig11, "a")},
	{ID: "11b", Figure: panel(Fig11, "b")},
	{ID: "12a", Figure: panel(Fig12, "a")},
	{ID: "12b", Figure: panel(Fig12, "b")},
	{ID: "ext-budget", Figure: ExtBudget},
	{ID: "ext-roundrobin", Figure: ExtRoundRobin},
	{ID: "ext-screening", Figure: ExtScreening},
	{ID: "ext-sorters", Figure: ExtSorters},
	{ID: "q-accuracy", Text: renderRealAccuracy},
}

// Lookup returns the experiment registered under id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func renderRealAccuracy(cfg Config, w io.Writer) error {
	results, err := RealAccuracy(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Section 6.2 accuracy on real-life queries (CrowdSky, ω=5):")
	for _, r := range results {
		fmt.Fprintf(w, "  %s: precision %.3f, recall %.3f\n", r.Query, r.Precision, r.Recall)
		fmt.Fprintf(w, "      skyline: %s\n", strings.Join(r.Skyline, "; "))
	}
	return nil
}
