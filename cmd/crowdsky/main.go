// Command crowdsky runs a crowd-enabled skyline query over a CSV file.
//
// The crowd is either simulated from a latent column (for experiments) or
// the operator, answering the pair-wise questions interactively.
//
// Examples:
//
//	# Simulated crowd: the "rating" column holds the latent ground truth,
//	# larger box office / year / rating preferred.
//	crowdsky -csv movies.csv -name title -known -box_office,-year \
//	         -crowd -rating -reliability 0.8 -workers 5
//
//	# Interactive crowd: you answer every comparison on the terminal.
//	crowdsky -csv movies.csv -name title -known -box_office,-year \
//	         -crowd -rating -interactive
//
//	# Built-in demo datasets: -demo toy|rectangles|movies|mlb.
//	crowdsky -demo movies
//
// Column syntax: a leading "-" marks a larger-is-better column (values are
// flipped to the internal smaller-is-better convention).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"

	"crowdsky"
	"crowdsky/internal/core"
	"crowdsky/internal/crowdserve"
	"crowdsky/internal/journal"
)

func main() {
	var (
		csvPath     = flag.String("csv", "", "input CSV file")
		nameCol     = flag.String("name", "", "column holding tuple names")
		knownCols   = flag.String("known", "", "comma-separated known attribute columns (prefix - for larger-is-better)")
		crowdCols   = flag.String("crowd", "", "comma-separated crowd attribute columns (latent ground truth for simulation)")
		demo        = flag.String("demo", "", "built-in dataset: toy, rectangles, movies or mlb")
		interactive = flag.Bool("interactive", false, "ask the operator instead of simulating")
		reliability = flag.Float64("reliability", 0.9, "simulated worker correctness probability")
		workers     = flag.Int("workers", 5, "workers per question (majority voting)")
		dynamic     = flag.Bool("dynamic", false, "use dynamic (importance-weighted) voting")
		parallel    = flag.String("parallel", "sl", "round scheduling: serial, dset or sl")
		seed        = flag.Int64("seed", 1, "simulation seed")
		server      = flag.String("server", "", "crowdserve marketplace URL (e.g. http://localhost:8800); overrides -interactive/-reliability")
		journalPath = flag.String("journal", "", "JSONL journal file: answers are logged, and an existing journal resumes the run without re-asking")
		tracePath   = flag.String("trace", "", "write the run's JSONL span trace (rounds, prunings, escalations) to this file")
		verbose     = flag.Bool("v", false, "verbose (debug-level) logging")
	)
	flag.Parse()
	for _, err := range []error{checkReliability(*reliability), checkWorkers(*workers, *dynamic)} {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	level := slog.LevelWarn
	if *verbose {
		level = slog.LevelDebug
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})))

	d, err := loadDataset(*demo, *csvPath, *nameCol, *knownCols, *crowdCols)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	slog.Debug("dataset loaded", "tuples", d.N(), "known", d.KnownDims(), "crowd", d.CrowdDims())

	var pf crowdsky.Platform
	switch {
	case *server != "":
		pf = crowdserve.NewClient(*server)
	case *interactive:
		pf = crowdsky.NewInteractiveCrowd(d, os.Stdin, os.Stderr)
	default:
		pf = crowdsky.NewSimulatedCrowd(d, crowdsky.CrowdConfig{
			Reliability: *reliability,
			Seed:        *seed,
		})
	}

	if *journalPath != "" {
		wrapped, cleanup, err := withJournal(*journalPath, pf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer cleanup()
		pf = wrapped
	}

	// Ctrl-C cancels the run context so a marketplace-backed run stops
	// polling promptly instead of waiting out its poll interval.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := crowdsky.RunConfig{Context: ctx}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		tracer := crowdsky.NewJSONLTracer(f)
		cfg.Tracer = tracer
		slog.Debug("tracing enabled", "file", *tracePath)
		defer func() {
			if err := crowdsky.TracerErr(tracer); err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
			}
		}()
	}
	sched, err := core.ParseSchedule(*parallel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "-parallel:", err)
		os.Exit(2)
	}
	cfg.Parallelism = sched
	cfg.Voting = crowdsky.StaticVoting(*workers)
	if *dynamic {
		cfg.Voting = crowdsky.DynamicVoting(d, *workers)
	}

	res, err := crowdsky.Run(d, pf, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("crowdsourced skyline (%d of %d tuples):\n", len(res.Skyline), d.N())
	for _, t := range res.Skyline {
		fmt.Printf("  %s\n", describeTuple(d, t))
	}
	fmt.Printf("questions: %d   rounds: %d   worker answers: %d   cost: $%.2f\n",
		res.Questions, res.Rounds, res.WorkerAnswers, res.Cost)
	if res.Contradictions > 0 {
		fmt.Printf("contradictory crowd answers dropped: %d\n", res.Contradictions)
	}
}

// withJournal wraps the platform with journaling and resume: existing
// entries in path are replayed for free, new answers are appended. A
// journal torn by a crash is recovered to its intact prefix — the file is
// truncated at the corruption point before appending resumes, so the torn
// bytes can never concatenate with a fresh record.
func withJournal(path string, pf crowdsky.Platform) (crowdsky.Platform, func(), error) {
	var entries []journal.Entry
	if data, err := os.ReadFile(path); err == nil {
		var stats journal.RecoverStats
		entries, stats, err = journal.Recover(bytes.NewReader(data))
		if err != nil {
			return nil, nil, fmt.Errorf("reading journal %s: %w", path, err)
		}
		if stats.Dropped > 0 {
			fmt.Fprintf(os.Stderr,
				"WARNING: journal %s is torn: kept %d intact answers, dropped %d corrupt record(s); truncating to the intact prefix\n",
				path, len(entries), stats.Dropped)
			if err := os.Truncate(path, stats.IntactBytes); err != nil {
				return nil, nil, fmt.Errorf("truncating torn journal %s: %w", path, err)
			}
		}
		fmt.Fprintf(os.Stderr, "resuming from journal %s (%d answers)\n", path, len(entries))
	} else if !os.IsNotExist(err) {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	jp, err := journal.NewPlatform(pf, entries, journal.NewWriter(f))
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return jp, func() { f.Close() }, nil
}

func loadDataset(demo, csvPath, nameCol, knownCols, crowdCols string) (*crowdsky.Dataset, error) {
	switch demo {
	case "toy":
		return crowdsky.Toy(), nil
	case "rectangles":
		return crowdsky.Rectangles(), nil
	case "movies":
		return crowdsky.Movies(), nil
	case "mlb":
		return crowdsky.MLBPitchers(), nil
	case "":
	default:
		return nil, fmt.Errorf("unknown -demo %q (want toy, rectangles, movies or mlb)", demo)
	}
	if csvPath == "" {
		return nil, fmt.Errorf("specify -csv <file> or -demo <name>")
	}
	if knownCols == "" {
		return nil, fmt.Errorf("-known is required with -csv")
	}
	f, err := os.Open(csvPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	split := func(s string) []string {
		if s == "" {
			return nil
		}
		parts := strings.Split(s, ",")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		return parts
	}
	return crowdsky.ReadCSV(f, crowdsky.CSVOptions{
		NameColumn:   nameCol,
		KnownColumns: split(knownCols),
		CrowdColumns: split(crowdCols),
	})
}

func describeTuple(d *crowdsky.Dataset, t int) string {
	var b strings.Builder
	b.WriteString(d.Name(t))
	b.WriteString(" (")
	for j := 0; j < d.KnownDims(); j++ {
		if j > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%g", d.KnownAttrName(j), d.Known(t, j))
	}
	b.WriteString(")")
	return b.String()
}

// checkReliability rejects a -reliability outside [0,1]. NaN fails every
// comparison, so the test is written as !(in range) to reject it too.
func checkReliability(r float64) error {
	if !(r >= 0 && r <= 1) {
		return fmt.Errorf("-reliability %v: want a probability in [0,1]", r)
	}
	return nil
}

// checkWorkers rejects a -workers count majority voting cannot use: it
// must be odd, so no vote splits evenly, and positive. -dynamic moves
// questions between ω−2 and ω+2 workers, so it needs ω of at least 3.
func checkWorkers(workers int, dynamic bool) error {
	if workers < 1 || workers%2 == 0 {
		return fmt.Errorf("-workers %d: want an odd, positive count", workers)
	}
	if dynamic && workers < 3 {
		return fmt.Errorf("-dynamic with -workers %d: want -workers 3 or more", workers)
	}
	return nil
}
