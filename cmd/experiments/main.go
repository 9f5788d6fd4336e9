// Command experiments regenerates the tables and figures of the CrowdSky
// paper's evaluation (Section 6) as text output.
//
// Usage:
//
//	experiments -fig 6a                 # one experiment
//	experiments -all                    # everything
//	experiments -all -scale 1 -runs 10  # full paper scale, 10-run averages
//	experiments -list                   # show available experiment ids
//
// Scale multiplies the paper's cardinality grid (default 0.25 keeps a full
// -all regeneration to a couple of minutes on a laptop; 1.0 is paper
// scale). Runs is the number of averaged repetitions (the paper uses 10).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"crowdsky/internal/experiments"
	"crowdsky/internal/telemetry"
)

func main() {
	var (
		fig     = flag.String("fig", "", "experiment id to run (e.g. 6a, 12b, table1, q-accuracy)")
		all     = flag.Bool("all", false, "run every experiment")
		list    = flag.Bool("list", false, "list available experiment ids")
		scale   = flag.Float64("scale", 0.25, "cardinality scale factor (1.0 = paper scale)")
		runs    = flag.Int("runs", 3, "averaged repetitions per sweep point (paper: 10)")
		seed    = flag.Int64("seed", 1, "base random seed")
		verbose = flag.Bool("v", false, "print per-point progress")
		outDir  = flag.String("out", "", "also write each figure as CSV into this directory")
		trace   = flag.String("trace", "", "write one JSONL span per experiment to this file (inspect with skytrace)")
	)
	flag.Parse()

	if *list {
		fmt.Println("available experiments:")
		for _, e := range experiments.Registry {
			fmt.Printf("  %s\n", e.ID)
		}
		return
	}
	if err := checkConfig(*scale, *runs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	level := slog.LevelWarn
	if *verbose {
		level = slog.LevelDebug
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})))

	cfg := experiments.Config{Runs: *runs, Seed: *seed, Scale: *scale}
	if *verbose {
		cfg.Progress = os.Stderr
	}
	slog.Debug("experiment config", "runs", *runs, "scale", *scale, "seed", *seed)

	var exps []experiments.Experiment
	switch {
	case *all:
		exps = experiments.Registry
	case *fig != "":
		for _, id := range strings.Split(*fig, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; -list shows the ids\n", id)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	default:
		fmt.Fprintln(os.Stderr, "specify -fig <id> or -all; -list shows the ids")
		os.Exit(2)
	}

	// With -trace, the whole invocation is a root span and every
	// experiment a child, so skytrace's waterfall shows which figures
	// dominate an -all regeneration.
	var tracer telemetry.Tracer
	ctx := context.Background()
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		jsonl := telemetry.NewJSONL(f)
		tracer = jsonl
		defer func() {
			if err := jsonl.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
			}
		}()
		var root *telemetry.Span
		ctx, root = telemetry.StartSpan(ctx, tracer, "experiments")
		defer root.End()
	}

	for i, e := range exps {
		if i > 0 {
			fmt.Println()
		}
		_, span := telemetry.StartSpan(ctx, tracer, "experiment")
		span.SetAttr("id", e.ID)
		var err error
		if *outDir != "" && e.Figure != nil {
			err = exportCSV(cfg, *outDir, e)
		} else {
			err = e.Run(cfg, os.Stdout)
		}
		span.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
}

// checkConfig rejects a -scale outside (0, 1] (NaN included) and a -runs
// below 1, which experiments.Config would otherwise replace with its
// defaults, starting a paper-scale run nobody asked for.
func checkConfig(scale float64, runs int) error {
	if !(scale > 0 && scale <= 1) { // false for NaN too
		return fmt.Errorf("-scale %v: want a cardinality scale in (0, 1]", scale)
	}
	if runs < 1 {
		return fmt.Errorf("-runs %d: want at least 1 run", runs)
	}
	return nil
}

// exportCSV builds the figure once, renders it to stdout and writes the
// CSV next to it.
func exportCSV(cfg experiments.Config, dir string, e experiments.Experiment) error {
	fig, err := e.Figure(cfg)
	if err != nil {
		return err
	}
	if err := fig.Render(os.Stdout); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "fig"+e.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return fig.WriteCSV(f)
}
