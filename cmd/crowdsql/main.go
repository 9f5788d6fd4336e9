// Command crowdsql executes the paper's SKYLINE OF query dialect
// (Example 1) over CSV tables.
//
// Tables live in a directory as <name>.csv files; a query names the table
// in FROM. Attributes in SKYLINE OF that are not stored columns are
// crowdsourced: with -interactive you answer the pair-wise questions, and
// otherwise a simulated crowd answers from the table's latent "_<attr>"
// column (which must exist).
//
// Examples:
//
//	crowdsql -dir ./tables "SELECT * FROM movie_db WHERE year >= 2010
//	    SKYLINE OF box_office MAX, romantic MAX"
//	crowdsql -dir ./tables -interactive "SELECT * FROM movie_db
//	    SKYLINE OF box_office MAX, romantic MAX"
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"crowdsky"
	"crowdsky/internal/core"
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/query"
	"crowdsky/internal/voting"
)

func main() {
	var (
		dir         = flag.String("dir", ".", "directory holding <table>.csv files")
		interactive = flag.Bool("interactive", false, "answer crowd questions on the terminal")
		reliability = flag.Float64("reliability", 1.0, "simulated worker correctness probability")
		workers     = flag.Int("workers", 1, "workers per question (majority voting)")
		seed        = flag.Int64("seed", 1, "simulation seed")
		schedule    = flag.String("schedule", "sl", "round scheduling: serial, dset or sl")
	)
	flag.Parse()
	if !(*reliability >= 0 && *reliability <= 1) { // NaN fails both comparisons
		fmt.Fprintf(os.Stderr, "-reliability %v: want a probability in [0,1]\n", *reliability)
		os.Exit(2)
	}
	if *workers < 1 || *workers%2 == 0 {
		fmt.Fprintf(os.Stderr, "-workers %d: want an odd, positive count\n", *workers)
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: crowdsql [flags] \"SELECT * FROM ... SKYLINE OF ...\"")
		os.Exit(2)
	}

	sched, err := core.ParseSchedule(*schedule)
	if err != nil {
		fmt.Fprintln(os.Stderr, "-schedule:", err)
		os.Exit(2)
	}
	opt := query.ExecOptions{}
	opt.Options.Voting = voting.Static{Omega: *workers}
	opt.Options.Schedule = sched
	switch {
	case *interactive:
		opt.Platform = func(d *dataset.Dataset) crowd.Platform {
			return crowdsky.NewInteractiveCrowd(d, os.Stdin, os.Stderr)
		}
	case *reliability < 1:
		opt.Platform = func(d *dataset.Dataset) crowd.Platform {
			return crowdsky.NewSimulatedCrowd(d, crowdsky.CrowdConfig{
				Reliability: *reliability,
				Seed:        *seed,
			})
		}
	}

	res, err := query.Run(flag.Arg(0), query.DirCatalog{Dir: *dir}, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println(strings.Join(res.Columns, ","))
	for _, row := range res.Rows {
		fmt.Println(strings.Join(row, ","))
	}
	fmt.Fprintf(os.Stderr, "-- %d rows; known attrs %v, crowd attrs %v; %d questions, %d rounds, $%.2f\n",
		len(res.Rows), res.KnownAttrs, res.CrowdAttrs, res.Questions, res.Rounds, res.Cost)
}
