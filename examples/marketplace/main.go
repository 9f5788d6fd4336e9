// Marketplace: the full distributed deployment in one process — an HTTP
// crowdsourcing marketplace (the AMT stand-in), a fleet of simulated
// workers polling it over HTTP, and a CrowdSky query driving rounds of
// questions through the marketplace, exactly as a production requester
// would.
//
// Run with: go run ./examples/marketplace
package main

import (
	"context"
	"fmt"
	"net/http/httptest"

	"crowdsky"
	"crowdsky/internal/core"
	"crowdsky/internal/crowd"
	"crowdsky/internal/crowdserve"
	"crowdsky/internal/voting"
)

func main() {
	d := crowdsky.MLBPitchers()
	fmt.Printf("marketplace demo: Q3 (%d pitchers), crowd attribute 'valuable'\n\n", d.N())

	// 1. The marketplace server (would be `crowdserved` in production).
	server := crowdserve.NewServer()
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()
	fmt.Printf("marketplace at %s\n", ts.URL)

	// 2. A fleet of workers polling over HTTP (real humans on AMT; here
	// simulated at 90%% reliability).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		crowdserve.SimulateWorkers(ctx, ts.URL, crowdserve.WorkerConfig{
			Count:       8,
			Truth:       crowd.DatasetTruth{Data: d},
			Reliability: 0.9,
			Seed:        11,
		})
	}()
	fmt.Println("8 workers polling for assignments")

	// 3. The requester: CrowdSky with skyline-layer scheduling and
	// 3-worker majority voting, every question travelling over HTTP.
	client := crowdserve.NewClient(ts.URL)
	opts := core.AllPruning()
	opts.Schedule = core.BySkylineLayers
	opts.Voting = voting.Static{Omega: 3}
	res := core.Run(d, client, opts)

	cancel()
	<-done

	fmt.Printf("\ncrowdsourced skyline (%d questions in %d rounds, %d judgments, $%.2f):\n",
		res.Questions, res.Rounds, res.WorkerAnswers, res.Cost)
	for _, t := range res.Skyline {
		fmt.Printf("  %s\n", d.Name(t))
	}
	prec, rec := crowdsky.PrecisionRecall(res.Skyline, crowdsky.Oracle(d), crowdsky.KnownSkyline(d))
	fmt.Printf("accuracy vs ground truth: precision %.2f, recall %.2f\n", prec, rec)
}
