package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"crowdsky"
	"crowdsky/internal/crowd"
)

// options configures one workload run.
type options struct {
	seed int64
	// seconds, when positive, keeps a timed run starting sessions until
	// that many seconds have passed; otherwise it runs the workload's
	// fixed session count.
	seconds int
	traced  bool
	quick   bool
}

// setupReps is the fewest set-ups a timed run measures; setup_s is their
// median.
const setupReps = 5

// record is one reported metric value.
type record struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Samples  int     `json:"samples"`
	// Spread estimates how far the value moves between runs, as a share
	// of it; absent for counts, which repeat exactly.
	Spread float64 `json:"spread,omitempty"`
}

// outcome is what one workload run produced.
type outcome struct {
	records           []record
	attempted, failed int
	errors            []string // the first few failures
	spans             []span
}

// run is one workload run in progress.
type run struct {
	w   workload
	o   options
	n   int
	out outcome
}

// runWorkload runs w once, timed or traced as o says.
func runWorkload(w workload, o options) *outcome {
	// The requester, and the calibration beside it, stay on one thread:
	// a session that migrates between vCPUs meets host load that a
	// calibration pass on another vCPU never sees. On a 2-vCPU VM, one
	// dataset's calibrated session time repeated within ±3% locked and
	// ±10% unlocked.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	r := &run{w: w, o: o, n: w.size(o.quick)}
	if o.traced {
		r.traced()
	} else {
		r.timed()
	}
	sort.SliceStable(r.out.records, func(i, j int) bool {
		return catalogueIndex(r.out.records[i].Metric) < catalogueIndex(r.out.records[j].Metric)
	})
	return &r.out
}

// add records one metric value.
func (r *run) add(name string, value float64, samples int, spread float64) {
	m, ok := lookup(name)
	if !ok || !m.reportedOn(r.w.name) {
		panic(fmt.Sprintf("metric %s is not reported on %s", name, r.w.name))
	}
	// A run whose sessions all failed has no samples; it reports zeros,
	// and its failure, rather than values JSON cannot carry.
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	if math.IsNaN(spread) || math.IsInf(spread, 0) {
		spread = 0
	}
	r.out.records = append(r.out.records, record{r.w.name, name, value, m.unit, samples, spread})
}

// note counts a finished session and keeps its failure, if any.
func (r *run) note(s *session) {
	r.out.attempted++
	if s.err != nil {
		r.out.failed++
		if len(r.out.errors) < 5 {
			r.out.errors = append(r.out.errors, s.err.Error())
		}
	}
}

// runOn runs one session of the workload on d, its crowd seeded with
// seed, and counts it. A serve session gets a marketplace of its own,
// metered when traced. It also returns when it began to set the session
// up, after collecting the heap: each session starts from a collected
// heap, so no session pays for the garbage of the one before it.
func (r *run) runOn(d *crowdsky.Dataset, seed int64, traced bool) (*session, time.Time) {
	runtime.GC()
	began := time.Now()
	var pf crowd.Platform
	var m *market
	switch {
	case r.w.serve:
		m = startMarket(d, traced)
		pf = m.platform()
	case r.w.noisy:
		pf = crowdsky.NewSimulatedCrowd(d, crowdsky.CrowdConfig{Reliability: 0.8, Seed: seed})
	default:
		pf = crowdsky.NewPerfectCrowd(d)
	}
	s := runSession(r.w, d, pf, traced)
	if m != nil {
		m.close()
		s.market = m
	}
	r.note(s)
	return s, began
}

// session generates session i's dataset and runs it.
func (r *run) session(i int, traced bool) *session {
	seed := r.o.seed + int64(i)
	d, err := r.w.dataset(r.n, seed)
	if err != nil {
		panic(err) // the workload table's configurations are valid
	}
	s, _ := r.runOn(d, seed, traced)
	return s
}

// setup sets the workload up once: it runs an untimed warm-up session at
// n/10 on the dataset seeded with seed+rep (for the serve workload, on a
// marketplace started for it). It returns the seconds from starting the
// crowd to the warm-up's return.
func (r *run) setup(rep int) float64 {
	seed := r.o.seed + int64(rep)
	d, err := r.w.dataset(max(r.n/10, 2), seed)
	if err != nil {
		panic(err)
	}
	s, began := r.runOn(d, seed, false)
	return s.run.end.Sub(began).Seconds()
}

// count returns the fixed session count of the run.
func (r *run) count() int {
	switch {
	case r.o.quick:
		return 1
	case r.o.traced:
		return r.w.traced
	}
	return r.w.sessions
}

// more reports whether a timed run starts session i.
func (r *run) more(i int, start time.Time) bool {
	if r.o.seconds > 0 {
		return i == 0 || time.Since(start) < time.Duration(r.o.seconds)*time.Second
	}
	return i < r.count()
}

// timed is the run the end-to-end metrics come from: only the recorder
// sits between the requester and its crowd. Every session is preceded by
// a set-up, so the set-ups sample the same moments of the machine as the
// sessions; one burst of host load cannot make the median. The
// calibration is measured before the first session and after every
// session; a session's calibrated metrics divide by the mean of the
// passes on either side.
func (r *run) timed() {
	var setups []float64
	cal := newCalibration()
	cals := []float64{cal.measure()}
	gaps, asks := newReservoir(), newReservoir()
	var walls, wallsCal []float64
	var questions, rounds, cost, f1, judgments, askSecs float64
	start := time.Now()
	for i := 0; r.more(i, start); i++ {
		setups = append(setups, r.setup(i))
		s := r.session(i, false)
		cals = append(cals, cal.measure())
		if s.err != nil {
			continue
		}
		ref := (cals[i] + cals[i+1]) / 2
		walls = append(walls, s.wall().Seconds())
		wallsCal = append(wallsCal, s.wall().Seconds()/ref)
		for _, g := range s.computeGaps() {
			gaps.add(ms(g))
		}
		if r.w.serve {
			for _, a := range s.rec.asks {
				asks.add(ms(a.end.Sub(a.start)))
			}
		}
		questions += float64(s.res.Questions)
		rounds += float64(s.res.Rounds)
		cost += s.res.Cost
		f1 += s.f1
		judgments += float64(s.rec.workers)
		askSecs += s.askTotal().Seconds()
	}
	for len(setups) < setupReps {
		setups = append(setups, r.setup(len(setups)))
	}
	peak := peakRSSMB()
	k := float64(max(len(walls), 1))

	r.add("setup_s", median(setups), len(setups), spread(setups))
	r.add("session_cal_p50", median(wallsCal), len(wallsCal), spread(wallsCal))
	r.add("session_s_p50", median(walls), len(walls), spread(walls))
	r.add("round_compute_ms_p50", median(gaps.vals), len(gaps.vals), spread(gaps.vals))
	tailName, p := "round_compute_ms_p99", 0.99
	if r.w.name == wlSL {
		tailName, p = "round_compute_ms_p95", 0.95
	}
	if v, ok := tail(gaps.vals, p); ok {
		r.add(tailName, v, len(gaps.vals), spread(gaps.vals))
	}
	r.add("peak_rss_mb", peak, 1, 0)
	r.add("questions_per_session", questions/k, len(walls), 0)
	r.add("rounds_per_session", rounds/k, len(walls), 0)
	r.add("cost_usd_per_session", cost/k, len(walls), 0)
	r.add("f1", f1/k, len(walls), 0)
	if r.w.serve {
		r.add("serve_round_ms_p50", median(asks.vals), len(asks.vals), spread(asks.vals))
		if v, ok := tail(asks.vals, 0.99); ok {
			r.add("serve_round_ms_p99", v, len(asks.vals), spread(asks.vals))
		}
		r.add("judgments_per_s", judgments/math.Max(askSecs, 1e-9), len(walls), 0)
	}
	r.add("error_ratio", float64(r.out.failed)/float64(max(r.out.attempted, 1)), r.out.attempted, 0)
	r.add("calibration_ms", 1000*median(cals), len(cals), spread(cals))
}

// layerTotals sums the per-layer measurements of a traced run's sessions.
type layerTotals struct {
	sessions                      int
	wall, ask, coreSelf           time.Duration
	sky                           skylineCost
	rep                           replayCost
	asks, questions, workers      int
	escalated, maxRound, mistakes int
	rt                            runtimeSnap

	calls       map[string][]float64 // handler milliseconds by route
	busy        time.Duration
	workEmpty   int
	requests    int
	attempts    int64
	failedReq   int64
	baseWalls   []float64
	tracedWalls []float64
}

// traced is the run the per-layer metrics come from. Each session runs
// twice on the same dataset: untraced, for trace.overhead_share, then
// with the answer log, spans, and, over HTTP, the route meter and the
// counting transport. Then the skyline and prefgraph layers are timed
// from outside on the session's inputs.
func (r *run) traced() {
	var t layerTotals
	t.calls = make(map[string][]float64)
	r.setup(0)
	tr := &tracer{base: time.Now()}
	for i := 0; i < r.count(); i++ {
		if s := r.session(i, false); s.err == nil {
			t.baseWalls = append(t.baseWalls, s.wall().Seconds())
		}
		s := r.session(i, true)
		if s.err != nil {
			continue
		}
		var calls []httpCall
		if m := s.market; m != nil {
			t.attempts += m.counter.attempts.Load()
			t.failedReq += m.counter.failed.Load()
			for _, c := range m.meter.recorded() {
				if !c.at.start.Before(s.run.start) && c.at.start.Before(s.run.end) {
					calls = append(calls, c)
				}
			}
		}
		trace := fmt.Sprintf("%s/%d", r.w.name, i)
		first := len(tr.spans)
		root := tr.session(trace, s, calls)
		self := selfTimes(tr.spans[first:])[root]
		sky := measureSkyline(tr, trace, s.d)
		rep := replay(tr, trace, s.d.N(), s.d.CrowdDims(), s.rec.log)
		t.add(r.w, s, calls, sky, rep, time.Duration(self))
	}
	r.out.spans = tr.spans
	r.layerRecords(&t)
}

// add folds one traced session into the totals. self is the session
// span's self time: its wall minus the rounds.
func (t *layerTotals) add(w workload, s *session, calls []httpCall, sky skylineCost, rep replayCost, self time.Duration) {
	t.sessions++
	t.wall += s.wall()
	t.tracedWalls = append(t.tracedWalls, s.wall().Seconds())
	t.ask += s.askTotal()
	outside := sky.build + sky.sets + rep.dur
	if w.algo == crowdsky.BySkylineLayers {
		outside += sky.imm // only ParallelSL computes immediate dominators
	}
	t.coreSelf += self - outside
	t.sky.build += sky.build
	t.sky.sets += sky.sets
	t.sky.imm += sky.imm
	t.sky.pairs += sky.pairs
	t.sky.edges += sky.edges
	t.sky.bitmapBytes += sky.bitmapBytes
	t.rep.dur += rep.dur
	t.rep.answers += rep.answers
	t.rep.edges += rep.edges
	t.rep.unions += rep.unions
	t.rep.contradictions += rep.contradictions
	t.rep.allocBytes += rep.allocBytes
	t.asks += len(s.rec.asks)
	t.questions += s.rec.questions
	t.workers += s.rec.workers
	t.escalated += s.rec.escalated
	t.maxRound = max(t.maxRound, s.rec.maxRound)
	t.mistakes += s.mist
	t.rt.allocBytes += s.rt.allocBytes
	t.rt.allocObjects += s.rt.allocObjects
	t.rt.gcCPU += s.rt.gcCPU
	t.rt.totalCPU += s.rt.totalCPU
	for _, c := range calls {
		d := c.at.end.Sub(c.at.start)
		t.calls[c.route] = append(t.calls[c.route], ms(d))
		t.busy += d
		if c.route == "get_work" && c.status == 204 {
			t.workEmpty++
		}
		if c.route == "post_round" || c.route == "get_round" {
			t.requests++
		}
	}
}

// layerRecords reports the per-layer metrics from the totals.
func (r *run) layerRecords(t *layerTotals) {
	k := float64(max(t.sessions, 1))
	perSession := func(name string, v float64) { r.add(name, v/k, t.sessions, 0) }
	perSession("skyline.index_build_ms", ms(t.sky.build))
	perSession("skyline.dominating_sets_ms", ms(t.sky.sets))
	perSession("skyline.immediate_dominators_ms", ms(t.sky.imm))
	perSession("skyline.index_bitmap_mb", float64(t.sky.bitmapBytes)/1e6)
	perSession("skyline.dominating_set_pairs", float64(t.sky.pairs))
	perSession("skyline.immediate_dominator_edges", float64(t.sky.edges))

	perSession("prefgraph.replay_ms", ms(t.rep.dur))
	r.add("prefgraph.ns_per_answer", ratio(float64(t.rep.dur.Nanoseconds()), float64(t.rep.answers)), t.rep.answers, 0)
	perSession("prefgraph.answers_applied", float64(t.rep.answers))
	perSession("prefgraph.edges", float64(t.rep.edges))
	perSession("prefgraph.unions", float64(t.rep.unions))
	perSession("prefgraph.contradictions", float64(t.rep.contradictions))
	perSession("prefgraph.alloc_mb", t.rep.allocBytes/1e6)

	perSession("crowd.ask_calls", float64(t.asks))
	perSession("crowd.ask_ms_total", ms(t.ask))
	r.add("crowd.questions_per_round_mean", ratio(float64(t.questions), float64(t.asks)), t.asks, 0)
	r.add("crowd.questions_per_round_max", float64(t.maxRound), t.asks, 0)
	perSession("crowd.worker_answers", float64(t.workers))
	perSession("crowd.mistakes", float64(t.mistakes))

	r.add("voting.workers_per_question_mean", ratio(float64(t.workers), float64(t.questions)), t.questions, 0)
	r.add("voting.escalated_share", ratio(float64(t.escalated), float64(t.questions)), t.questions, 0)

	perSession("core.self_ms", ms(t.coreSelf))
	r.add("core.self_share", ratio(float64(t.coreSelf), float64(t.wall)), t.sessions, 0)
	r.add("core.question_ratio", ratio(float64(t.questions), float64(crowdDims*t.sky.pairs)), t.sessions, 0)

	polls := len(t.calls["get_round"])
	all := 0
	for _, c := range t.calls {
		all += len(c)
	}
	r.add("crowdserve.http_requests_per_round", ratio(float64(all), float64(t.asks)), t.asks, 0)
	r.add("crowdserve.polls_per_round", ratio(float64(polls), float64(t.asks)), t.asks, 0)
	if r.w.serve {
		for _, route := range routes {
			c := t.calls[route]
			r.add("crowdserve.handler_ms_p50."+route, median(c), len(c), spread(c))
		}
	}
	r.add("crowdserve.handler_busy_share", ratio(float64(t.busy), float64(t.wall)), t.sessions, 0)
	r.add("crowdserve.work_empty_ratio", ratio(float64(t.workEmpty), float64(len(t.calls["get_work"]))), len(t.calls["get_work"]), 0)
	r.add("crowdserve.client_attempts_per_request", ratio(float64(t.attempts), float64(t.requests)), t.requests, 0)
	r.add("crowdserve.client_failed_requests", float64(t.failedReq), t.requests, 0)

	r.add("runtime.gc_cpu_share", ratio(t.rt.gcCPU, t.rt.totalCPU), t.sessions, 0)
	perSession("runtime.alloc_mb_per_session", t.rt.allocBytes/1e6)
	perSession("runtime.allocs_per_session", t.rt.allocObjects)

	base := median(t.baseWalls)
	r.add("trace.overhead_share", ratio(median(t.tracedWalls)-base, base), t.sessions, 0)
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never uses)
// or either side is undefined.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB returns this process's peak resident set size (the kernel's
// VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
