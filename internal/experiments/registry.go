package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Runner regenerates one experiment and writes its text rendering to w.
type Runner func(cfg Config, w io.Writer) error

// Registry maps experiment identifiers (figure/table numbers as the paper
// names them) to runners. cmd/experiments exposes it via -fig. It holds
// every FigureBuilders entry, rendered as text, plus the toy tables and
// q-accuracy, which render text only.
var Registry = func() map[string]Runner {
	r := map[string]Runner{
		"table1": func(cfg Config, w io.Writer) error { return RenderTable1(w) },
		"table2": func(cfg Config, w io.Writer) error { return RenderTable2(w) },
		"table3": func(cfg Config, w io.Writer) error { return RenderTable3(w) },

		"q-accuracy": func(cfg Config, w io.Writer) error {
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
		},
	}
	for id, build := range FigureBuilders {
		r[id] = figRunner(build)
	}
	return r
}()

func figRunner(f func(Config) (*Figure, error)) Runner {
	return func(cfg Config, w io.Writer) error {
		fig, err := f(cfg)
		if err != nil {
			return err
		}
		return fig.Render(w)
	}
}

// FigureBuilders maps the ids of figure-producing experiments to their
// builders, for callers that want the structured Figure (CSV export,
// plotting). Registry renders each of them as text.
var FigureBuilders = map[string]func(Config) (*Figure, error){
	"6a": func(cfg Config) (*Figure, error) { return Fig6(cfg, "a") },
	"6b": func(cfg Config) (*Figure, error) { return Fig6(cfg, "b") },
	"6c": func(cfg Config) (*Figure, error) { return Fig6(cfg, "c") },
	"7a": func(cfg Config) (*Figure, error) { return Fig7(cfg, "a") },
	"7b": func(cfg Config) (*Figure, error) { return Fig7(cfg, "b") },
	"7c": func(cfg Config) (*Figure, error) { return Fig7(cfg, "c") },
	"8a": func(cfg Config) (*Figure, error) { return Fig8(cfg, "a") },
	"8b": func(cfg Config) (*Figure, error) { return Fig8(cfg, "b") },
	"9a": func(cfg Config) (*Figure, error) { return Fig9(cfg, "a") },
	"9b": func(cfg Config) (*Figure, error) { return Fig9(cfg, "b") },

	"10a": func(cfg Config) (*Figure, error) { return Fig10(cfg, "a") },
	"10b": func(cfg Config) (*Figure, error) { return Fig10(cfg, "b") },
	"11a": func(cfg Config) (*Figure, error) { return Fig11(cfg, "a") },
	"11b": func(cfg Config) (*Figure, error) { return Fig11(cfg, "b") },
	"12a": func(cfg Config) (*Figure, error) { return Fig12(cfg, "a") },
	"12b": func(cfg Config) (*Figure, error) { return Fig12(cfg, "b") },

	"ext-roundrobin": ExtRoundRobin,
	"ext-budget":     ExtBudget,
	"ext-sorters":    ExtSorters,
	"ext-screening":  ExtScreening,
}

// IDs returns the registry keys in a stable, human-sensible order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		ra, rb := rankID(ids[a]), rankID(ids[b])
		if ra != rb {
			return ra < rb
		}
		return ids[a] < ids[b]
	})
	return ids
}

func rankID(id string) int {
	switch {
	case strings.HasPrefix(id, "table"):
		return 0
	case len(id) >= 2 && id[0] >= '6' && id[0] <= '9' && id[1] >= 'a':
		return 1
	case strings.HasPrefix(id, "1"):
		return 2
	default:
		return 3
	}
}
