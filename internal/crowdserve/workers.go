package crowdserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"crowdsky/internal/crowd"
	"crowdsky/internal/faultinject"
)

// WorkerConfig configures a simulated worker fleet driven against a
// marketplace over HTTP.
type WorkerConfig struct {
	// Count is the number of concurrent workers.
	Count int
	// Truth supplies correct answers; each worker errs independently.
	Truth crowd.Truth
	// Reliability is each worker's correctness probability.
	Reliability float64
	// PollInterval between work fetches when the queue is empty; defaults
	// to 50ms.
	PollInterval time.Duration
	// Seed drives the fleet's randomness.
	Seed int64
	// Faults, when non-nil, makes workers misbehave on purpose: abandon
	// fetched assignments (no-show), submit a judgment twice, or submit
	// after the lease lapsed. The decision stream is drawn from each
	// worker's own seeded RNG, so a fixed Seed reproduces the same
	// misbehaviour schedule. The marketplace must absorb all of it.
	Faults *faultinject.WorkerFaults
}

// SimulateWorkers runs a fleet of simulated workers against the
// marketplace at baseURL until ctx is cancelled. It returns after all
// workers have stopped. Errors from individual requests are retried after
// the poll interval — workers on flaky networks must not wedge.
//
// A worker submits each judgment with "next": true, so the reply carries
// its next lease and a busy worker spends one exchange per judgment. It
// polls GET /api/work only when it holds no job: at start, once the queue
// ran dry, and after a rejected answer or an injected fault.
func SimulateWorkers(ctx context.Context, baseURL string, cfg WorkerConfig) {
	poll := cfg.PollInterval
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	var wg sync.WaitGroup
	// One Add for the whole fleet, before any goroutine starts: the
	// counter can never be observed mid-ramp by Wait.
	wg.Add(cfg.Count)
	for w := 0; w < cfg.Count; w++ {
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
			worker := crowd.Worker{ID: id, Reliability: cfg.Reliability}
			name := fmt.Sprintf("sim-%d", id)
			client := &http.Client{Timeout: 10 * time.Second}
			var job workItem // the held lease, when have is set
			have := false
			for ctx.Err() == nil {
				if !have {
					if job, have = fetchWork(ctx, client, baseURL, name); !have {
						pause(ctx, poll)
						continue
					}
				}
				truth := cfg.Truth.Answer(crowd.Question{A: job.A, B: job.B, Attr: job.Attr})
				answer := worker.Judge(truth, rng)
				var fault faultinject.Kind
				if cfg.Faults != nil {
					fault = cfg.Faults.Next(rng)
				}
				// Every fault path drops the job and fetches afresh.
				have = false
				switch fault {
				case faultinject.KindWorkerNoShow:
					// Walk away with the lease; the server must requeue the
					// slot once it lapses.
				case faultinject.KindWorkerDuplicate:
					submitAnswer(ctx, client, baseURL, name, job.AssignmentID, answer, false)
					submitAnswer(ctx, client, baseURL, name, job.AssignmentID, answer, false)
				case faultinject.KindWorkerStale:
					// Outlive the lease, then submit; the server must reject
					// the late judgment (the slot belongs to someone else).
					if pause(ctx, cfg.Faults.Delay()) {
						submitAnswer(ctx, client, baseURL, name, job.AssignmentID, answer, false)
					}
				default:
					var accepted bool
					job, have, accepted = submitAnswer(ctx, client, baseURL, name, job.AssignmentID, answer, true)
					if accepted && !have {
						// Nothing is open for this worker: wait as after a 204.
						pause(ctx, poll)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// pause waits d or until ctx is done, whichever comes first, and reports
// whether the full wait elapsed.
func pause(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// fetchWork polls GET /api/work; ok is false on a 204 or any failure.
func fetchWork(ctx context.Context, client *http.Client, baseURL, worker string) (job workItem, ok bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		baseURL+"/api/work?worker="+worker, nil)
	if err != nil {
		return workItem{}, false
	}
	resp, err := client.Do(req)
	if err != nil {
		return workItem{}, false
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return workItem{}, false
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return workItem{}, false
	}
	return job, true
}

// submitAnswer posts one judgment and reports whether the server accepted
// it. With next set, the server also leases the worker's next assignment,
// returned as job with leased true.
func submitAnswer(ctx context.Context, client *http.Client, baseURL, worker string,
	assignment int64, pref crowd.Preference, next bool) (job workItem, leased, accepted bool) {
	body, err := json.Marshal(answerRequest{
		AssignmentID: assignment, Worker: worker, Pref: pref.String(), Next: next,
	})
	if err != nil {
		return workItem{}, false, false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		baseURL+"/api/answers", bytes.NewReader(body))
	if err != nil {
		return workItem{}, false, false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return workItem{}, false, false
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return workItem{}, false, false
	}
	var ack answerAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || ack.Next == nil {
		// A torn reply may have stranded a lease; it lapses and requeues.
		return workItem{}, false, err == nil
	}
	return *ack.Next, true, true
}
