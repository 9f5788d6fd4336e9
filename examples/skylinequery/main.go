// Skylinequery: the paper's Example 1 as a running program. A movie table
// stores year and box office; "romantic" exists nowhere in the data, so
// the SKYLINE OF clause sends its comparisons to a (simulated) crowd.
//
// Run with: go run ./examples/skylinequery
package main

import (
	"fmt"
	"strings"

	"crowdsky"
	"crowdsky/internal/core"
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/query"
)

// movieDB is the stored table. The "_romantic" column is the latent ground
// truth a simulated crowd answers from (it would not exist in a production
// table — real humans would).
const movieDB = `title,year,box_office,_romantic
The Notebook Returns,2013,120,9.1
Explosion Max,2014,820,1.2
Love in Winter,2011,95,8.7
Space Punchers,2012,640,2.0
A Quiet Paris,2015,230,8.9
Robo Crash 4,2015,710,1.5
Candlelight,2010,60,8.2
Mediocre Sunset,2013,180,6.0
`

const sql = `SELECT * FROM movie_db
WHERE year >= 2010 AND year <= 2015
SKYLINE OF box_office MAX, romantic MAX`

func main() {
	tbl, err := query.ReadTable("movie_db", strings.NewReader(movieDB))
	if err != nil {
		panic(err)
	}
	cat := query.MemCatalog{"movie_db": tbl}

	fmt.Println(sql)
	fmt.Println()

	res, err := query.Run(sql, cat, query.ExecOptions{
		Options: core.Options{Schedule: core.BySkylineLayers},
		Platform: func(d *dataset.Dataset) crowd.Platform {
			// 90%-reliable workers; in production this would be an
			// interactive or crowdserve-backed platform.
			return crowdsky.NewSimulatedCrowd(d, crowdsky.CrowdConfig{Reliability: 0.9, Seed: 4})
		},
	})
	if err != nil {
		panic(err)
	}

	fmt.Printf("known attributes:  %v (machine-evaluated)\n", res.KnownAttrs)
	fmt.Printf("crowd attributes:  %v (asked to the crowd)\n\n", res.CrowdAttrs)
	fmt.Println(strings.Join(res.Columns, " | "))
	for _, row := range res.Rows {
		fmt.Println(strings.Join(row, " | "))
	}
	fmt.Printf("\n%d crowd questions in %d rounds ($%.2f)\n", res.Questions, res.Rounds, res.Cost)
}
