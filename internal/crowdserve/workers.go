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
// A worker works one HIT at a time: it holds up to crowd.QuestionsPerHIT
// leases and submits their judgments in one batched answer that asks for
// as many new leases, so a busy worker spends one exchange per HIT. A
// faulted lease leaves the batch and misbehaves on its own: a duplicate or
// stale judgment is posted as a one-judgment answer. The worker polls
// GET /api/work only when it holds no job: at start, once the queue ran
// dry, and after a failed answer or a HIT whose every lease faulted.
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
			var held []workItem      // the leases of the HIT in hand
			var batch []judgmentJSON // its well-behaved judgments
			for ctx.Err() == nil {
				if len(held) == 0 {
					if held = fetchWork(ctx, client, baseURL, name); len(held) == 0 {
						pause(ctx, poll)
						continue
					}
				}
				batch = batch[:0]
				for _, job := range held {
					truth := cfg.Truth.Answer(crowd.Question{A: job.A, B: job.B, Attr: job.Attr})
					j := judgmentJSON{AssignmentID: job.AssignmentID, Pref: worker.Judge(truth, rng).String()}
					var fault faultinject.Kind
					if cfg.Faults != nil {
						fault = cfg.Faults.Next(rng)
					}
					switch fault {
					case faultinject.KindWorkerNoShow:
						// Walk away with the lease; the server must requeue the
						// slot once it lapses.
					case faultinject.KindWorkerDuplicate:
						alone := answerRequest{Worker: name, Judgments: []judgmentJSON{j}}
						submitAnswers(ctx, client, baseURL, alone)
						submitAnswers(ctx, client, baseURL, alone)
					case faultinject.KindWorkerStale:
						// Outlive the lease, then submit; the server must reject
						// the late judgment (the slot belongs to someone else).
						if pause(ctx, cfg.Faults.Delay()) {
							submitAnswers(ctx, client, baseURL, answerRequest{Worker: name, Judgments: []judgmentJSON{j}})
						}
					default:
						batch = append(batch, j)
					}
				}
				held = nil
				if len(batch) == 0 {
					continue
				}
				req := answerRequest{Worker: name, Judgments: batch, Max: crowd.QuestionsPerHIT}
				var accepted bool
				if held, accepted = submitAnswers(ctx, client, baseURL, req); accepted && len(held) == 0 {
					// Nothing is open for this worker: wait as after a 204.
					pause(ctx, poll)
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

// fetchWork leases up to one HIT of assignments through GET /api/work;
// it returns none on a 204 or any failure.
func fetchWork(ctx context.Context, client *http.Client, baseURL, worker string) []workItem {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/api/work?worker=%s&max=%d", baseURL, worker, crowd.QuestionsPerHIT), nil)
	if err != nil {
		return nil
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var batch leaseBatch
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		return nil
	}
	return batch.Leases
}

// submitAnswers posts one answer and reports whether the server accepted
// it and its reply arrived whole; an answer is accepted even when some of
// its judgments are not. leases are the ones the reply carries.
func submitAnswers(ctx context.Context, client *http.Client, baseURL string, body answerRequest) (leases []workItem, accepted bool) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		baseURL+"/api/answers", bytes.NewReader(data))
	if err != nil {
		return nil, false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, false
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	var ack answerAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		// A torn reply may have stranded leases; they lapse and requeue.
		return nil, false
	}
	return ack.Leases, true
}
