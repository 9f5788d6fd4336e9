package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"crowdsky"
	"crowdsky/internal/crowd"
	"crowdsky/internal/metrics"
)

// workload is one set of inputs the benchmark runs. Every workload uses
// |AK|=4 known and |AC|=2 crowd attributes and the full P1+P2+P3 pruning;
// session i runs on the dataset generated from seed+i.
type workload struct {
	name string
	why  string // one line, mirrored in BENCHMARK.json
	algo crowdsky.Parallelism
	dist crowdsky.Distribution
	n    int
	// noisy selects the paper's accuracy setting: a simulated crowd with
	// worker reliability 0.8 and an unbounded pool, voted by
	// StaticVoting(omega). Otherwise the crowd is perfect and every
	// question gets one worker.
	noisy bool
	// serve sends every round over HTTP to an in-process crowdserve
	// marketplace answered by one simulated worker.
	serve bool
	// sessions is the session count of a timed run without -seconds;
	// traced is the session count of a traced run.
	sessions, traced int
}

// omega is the static vote size of the noisy workload (the paper's ω).
const omega = 5

// The dimensionality every workload uses: |AK| known and |AC| crowd
// attributes.
const (
	knownDims = 4
	crowdDims = 2
)

// quickN caps the cardinality under -quick.
const quickN = 300

var workloads = []workload{
	{
		name: wlSL, algo: crowdsky.BySkylineLayers, dist: crowdsky.Independent, n: 4000,
		sessions: 24, traced: 3,
		why: "ParallelSL on dense dominance: about 43 wide rounds; machine time between rounds sits in prefgraph closure, immediate dominators and P3 ordering",
	},
	{
		name: wlSerial, algo: crowdsky.Serial, dist: crowdsky.AntiCorrelated, n: 5000,
		sessions: 24, traced: 3,
		why: "Serial on sparse dominance: about 15k one-pair rounds, so per-answer closure and per-round overhead dominate; never computes immediate dominators",
	},
	{
		name: wlNoisy, algo: crowdsky.ByDominatingSets, dist: crowdsky.Independent, n: 1000,
		noisy: true, sessions: 200, traced: 20,
		why: "The paper's accuracy setting (p=0.8, static voting 5): exercises the noisy crowd, voting and prefgraph contradictions; carries cost and F1",
	},
	{
		name: wlServe, algo: crowdsky.BySkylineLayers, dist: crowdsky.AntiCorrelated, n: 1000,
		serve: true, sessions: 24, traced: 3,
		why: "ParallelSL over HTTP to an in-process marketplace with one simulated worker: JSON, the server lock, the lease queue and client polling dominate",
	},
}

// findWorkload returns the workload called name.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// size returns the cardinality a run uses.
func (w workload) size(quick bool) int {
	if quick && w.n > quickN {
		return quickN
	}
	return w.n
}

// dataset generates the dataset of the session seeded with seed.
func (w workload) dataset(n int, seed int64) (*crowdsky.Dataset, error) {
	return crowdsky.Generate(crowdsky.GenerateConfig{
		N: n, KnownDims: knownDims, CrowdDims: crowdDims, Distribution: w.dist,
	}, rand.New(rand.NewSource(seed)))
}

// config returns the run configuration of the workload.
func (w workload) config() crowdsky.RunConfig {
	cfg := crowdsky.RunConfig{Parallelism: w.algo}
	if w.noisy {
		cfg.Voting = crowdsky.StaticVoting(omega)
	}
	return cfg
}

// workersPerQuestion returns the worker count every question of the
// workload gets.
func (w workload) workersPerQuestion() int {
	if w.noisy {
		return omega
	}
	return 1
}

// interval is one timed call.
type interval struct{ start, end time.Time }

// recorder is the one decorator on the timed path: it timestamps every
// round and counts what the requester asked, so the gates can hold the
// Result against what the platform saw. Traced runs also keep the answer
// log for the prefgraph replay.
type recorder struct {
	inner crowd.Platform
	omega int

	asks      []interval
	questions int
	workers   int // individual worker judgments requested
	escalated int // requests with more than omega workers
	maxRound  int
	log       []crowd.Answer // nil unless keepLog
	keepLog   bool
}

// Ask implements crowd.Platform.
func (r *recorder) Ask(reqs []crowd.Request) []crowd.Answer {
	return r.AskCtx(context.Background(), reqs)
}

// AskCtx implements crowd.ContextPlatform, so the run's context still
// reaches a marketplace client behind the recorder.
func (r *recorder) AskCtx(ctx context.Context, reqs []crowd.Request) []crowd.Answer {
	if len(reqs) == 0 {
		return nil
	}
	start := time.Now()
	answers := crowd.AskWithContext(ctx, r.inner, reqs)
	r.asks = append(r.asks, interval{start, time.Now()})
	r.questions += len(reqs)
	r.maxRound = max(r.maxRound, len(reqs))
	for _, q := range reqs {
		r.workers += max(q.Workers, 1)
		if q.Workers > r.omega {
			r.escalated++
		}
	}
	if r.keepLog {
		r.log = append(r.log, answers...)
	}
	return answers
}

// Stats implements crowd.Platform.
func (r *recorder) Stats() *crowd.Stats { return r.inner.Stats() }

// session is the outcome of one crowdsky.Run and its checks.
type session struct {
	d    *crowdsky.Dataset
	res  *crowdsky.Result
	run  interval
	rec  *recorder
	rt   runtimeSnap // runtime counters accumulated during the run
	f1   float64
	mist int // aggregated answers the simulated crowd got wrong
	err  error
	// market is the marketplace a serve session ran against, closed.
	market *market
}

// wall returns the session's wall time.
func (s *session) wall() time.Duration { return s.run.end.Sub(s.run.start) }

// computeGaps returns the machine time the requester spent between
// rounds: Run start to the first Ask, every gap between consecutive Asks,
// and the last Ask to Run's return.
func (s *session) computeGaps() []time.Duration {
	gaps := make([]time.Duration, 0, len(s.rec.asks)+1)
	prev := s.run.start
	for _, a := range s.rec.asks {
		gaps = append(gaps, a.start.Sub(prev))
		prev = a.end
	}
	return append(gaps, s.run.end.Sub(prev))
}

// askTotal returns the time spent inside the platform.
func (s *session) askTotal() time.Duration {
	var t time.Duration
	for _, a := range s.rec.asks {
		t += a.end.Sub(a.start)
	}
	return t
}

// runSession runs one crowdsky.Run of w on d against pf and applies the
// correctness gates. A panic inside the run (the marketplace client
// panics on transport failures) fails the session instead of the
// benchmark.
func runSession(w workload, d *crowdsky.Dataset, pf crowd.Platform, keepLog bool) *session {
	s := &session{d: d, rec: &recorder{inner: pf, omega: w.workersPerQuestion(), keepLog: keepLog}}
	func() {
		defer func() {
			if p := recover(); p != nil {
				s.run.end = time.Now()
				s.err = fmt.Errorf("run panicked: %v", p)
			}
		}()
		before := readRuntime()
		s.run.start = time.Now()
		s.res, s.err = crowdsky.Run(d, s.rec, w.config())
		s.run.end = time.Now()
		s.rt = readRuntime().sub(before)
	}()
	if m, ok := pf.(interface{ Mistakes() int }); ok {
		s.mist = m.Mistakes()
	}
	if s.err == nil {
		s.err = s.check(w.noisy)
	}
	return s
}

// check applies the correctness gates: the Result agrees with what the
// recorder saw, and the skyline is the oracle's under a perfect crowd or
// contains every known-attribute skyline tuple under a noisy one.
func (s *session) check(noisy bool) error {
	if s.res.Questions != s.rec.questions || s.res.Rounds != len(s.rec.asks) {
		return fmt.Errorf("result reports %d questions in %d rounds, platform saw %d in %d",
			s.res.Questions, s.res.Rounds, s.rec.questions, len(s.rec.asks))
	}
	oracle := crowdsky.Oracle(s.d)
	known := crowdsky.KnownSkyline(s.d)
	p, r := crowdsky.PrecisionRecall(s.res.Skyline, oracle, known)
	s.f1 = metrics.F1(p, r)
	if noisy {
		in := make(map[int]bool, len(s.res.Skyline))
		for _, t := range s.res.Skyline {
			in[t] = true
		}
		for _, t := range known {
			if !in[t] {
				return fmt.Errorf("known-attribute skyline tuple %d missing from the result", t)
			}
		}
		return nil
	}
	got, want := slices.Clone(s.res.Skyline), slices.Clone(oracle)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("skyline of %d tuples differs from the oracle's %d", len(got), len(want))
	}
	return nil
}
