// Package core implements the paper's crowd-enabled skyline algorithms:
//
//   - Run: the dominating-set questions of Algorithm 1 with the pruning
//     methods P1 (Section 3.2), P2 (Section 3.3) and P3 (Section 3.4),
//     each toggleable for the ablations of Figures 6-7, under the
//     Options.Schedule that decides when each tuple starts: Serial
//     (Algorithm 1), ByDominatingSets (Section 4.1) or BySkylineLayers
//     (Algorithm 2, Section 4.2). CrowdSkyProbabilistic adds a per-tuple
//     skyline probability readout for the fixed-budget setting.
//   - Baseline (Section 6.1): crowd-powered tournament sort over the crowd
//     attributes followed by a machine skyline.
//   - Unary (Section 6.1, Figure 11): the quantitative-question comparator
//     simulating Lofi et al. [12].
//
// Every schedule shares one per-tuple pipeline (tupleEval: P1/P2
// reduction, P3 probing, Q(t) with the C3 early break) and one round
// driver (session.drive) that advances every active pipeline, asks the
// pairs they wait on as one round, and reads out the pipelines that
// completed. The schedules differ only in the rule that admits pipelines:
// Serial starts the next tuple in P1 order once nothing is active,
// ByDominatingSets the next disjoint batch of one size group once nothing
// is active, and BySkylineLayers every tuple all of whose dominating set
// DS(t) is decided (equivalently, every member of its immediate
// dominators c(t)), found by one word cursor per waiting tuple into its
// dominance-bitmap row. All algorithms exchange questions with a
// crowd.Platform and never touch the latent attribute values.
//
// DS(t) stays in the skyline.Index bitmap: no session builds the
// dominating sets as lists. The schedules read |DS(t)| from the index,
// P1 is an AND-NOT of t's row with the session's dominated mask, and
// ParallelSL's cursor meets the row with its undecided mask; both masks
// are over the index's positions and change only in setStatus.
//
// Between two rounds the session uses every P it has in two places
// (fanout.go): each round's answers fold into the per-attribute
// preference graphs one attribute per goroutine, and the pipelines one
// admission starts are built one tuple per goroutine. Both fan out only
// above a work threshold, and every item writes state no other item
// touches, so questions, rounds and the skyline are the same for every
// GOMAXPROCS.
package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"crowdsky/internal/bitset"
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/prefgraph"
	"crowdsky/internal/skyline"
	"crowdsky/internal/telemetry"
	"crowdsky/internal/voting"
)

// Options configures a crowd-enabled skyline run.
type Options struct {
	// Schedule selects when each tuple's question pipeline may start, and
	// so how questions are arranged into rounds. The zero value is Serial.
	Schedule Schedule
	// P1 enables early pruning for non-skyline tuples in A (Section 3.2):
	// tuples are evaluated in ascending |DS(t)| order and complete
	// non-skyline tuples are removed from pending dominating sets.
	P1 bool
	// P2 enables pruning non-skyline tuples in AC (Section 3.3): DS(t) is
	// reduced to SKY_AC(DS(t)) using the transitivity recorded in the
	// preference tree.
	P2 bool
	// P3 enables probing dominating sets (Section 3.4): pair-wise
	// questions inside DS(t), greedily ordered by descending freq(u,v),
	// shrink the dominating set before Q(t) is generated.
	P3 bool
	// Voting decides the number of workers per question from its
	// voting.Context: importance, run progress and backup. Nil defaults to
	// a single worker, which is the perfect-crowd setting of Sections 3-4.
	Voting voting.Policy
	// RoundRobinAC enables the round-robin strategy for multiple crowd
	// attributes that Section 6.1 mentions but leaves unevaluated: the
	// attributes of a pair are asked one at a time, and the remaining
	// attributes are skipped as soon as the pair's outcome is decided
	// (the candidate dominator lost an attribute, or a probing pair is
	// already incomparable). With |AC| = 1 it has no effect.
	RoundRobinAC bool
	// ProbeOrder selects how P3's probing questions are ordered. The
	// paper is ambiguous: Algorithm 1 line 11 sorts by ascending
	// freq(u,v) while the Section 3.4 prose picks the highest frequency
	// first. The default follows the prose (descending);
	// BenchmarkAblationProbeOrder measures the difference.
	ProbeOrder ProbeOrder
	// MaxQuestions, when positive, caps the number of crowd questions
	// (the fixed-budget setting of Lofi et al. [12]); the round that
	// reaches the cap is cut to fit it. Once the budget is spent, every
	// algorithm still starts and advances its tuples through whatever the
	// answers so far decide, and a tuple that then needs the crowd is read
	// out optimistically, as not dominated. Result.Truncated is set when a
	// question went unasked for want of budget.
	MaxQuestions int
	// Tracer receives the run's span tree: the run, its crowd rounds, the
	// index build and per-tuple question generation, with P1/P2/P3
	// removals, vote escalations and budget truncation as span attributes.
	// Nil disables tracing at the cost of one pointer comparison per
	// potential span.
	Tracer telemetry.Tracer
	// Index, when non-nil, is a prebuilt dominance index over the run's
	// dataset (skyline.NewIndex). Callers running several configurations
	// over the same dataset — the experiment sweeps, the differential
	// oracle — share one index instead of paying the quadratic machine
	// part per run. It is adopted only when it matches the dataset and the
	// degenerate-case preprocessing removed nothing; otherwise the session
	// builds its own restricted index.
	Index *skyline.Index
	// Context, when non-nil, is the run's base context: it is forwarded to
	// context-aware platforms (crowd.ContextPlatform) on every round for
	// cancellation, and it parents the run's span tree (an enclosing span
	// placed with telemetry.ContextWithSpan makes the run a child span).
	Context context.Context
}

// ProbeOrder selects the ordering of P3's probing questions.
type ProbeOrder int

// Probe orderings.
const (
	// FreqDescending asks the highest-frequency (most pruning power) pair
	// first — the Section 3.4 prose reading, and the default.
	FreqDescending ProbeOrder = iota
	// FreqAscending follows the letter of Algorithm 1 line 11.
	FreqAscending
	// PairOrder keeps the generation order (no frequency sorting).
	PairOrder
)

// AllPruning returns the full CrowdSky configuration (P1+P2+P3) under the
// Serial schedule.
func AllPruning() Options { return Options{P1: true, P2: true, P3: true} }

// SmartVoting calibrates voting.Smart for the dataset behind ix: β is the
// 95th percentile of the importance freq(u,v) over the questions CrowdSky
// may ask, every dominating-set question plus at most 32 probing pairs per
// tuple.
func SmartVoting(ix *skyline.Index, omega int) voting.Smart {
	const probeCap = 32 // bounds the quadratic probe enumeration per tuple
	fc := ix.FreqCounter()
	var freqs, ds []int
	for t := 0; t < ix.Tuples(); t++ {
		ds = ix.AppendDominators(ds[:0], t, nil)
		slices.Sort(ds) // tuple order picks the same probe pairs
		for _, s := range ds {
			freqs = append(freqs, fc.Freq(s, t))
		}
		count := 0
		for i := 0; i < len(ds) && count < probeCap; i++ {
			for j := i + 1; j < len(ds) && count < probeCap; j++ {
				freqs = append(freqs, fc.Freq(ds[i], ds[j]))
				count++
			}
		}
	}
	if len(freqs) == 0 {
		return voting.NewSmart(omega, 0)
	}
	slices.Sort(freqs)
	return voting.NewSmart(omega, freqs[min(int(0.95*float64(len(freqs))), len(freqs)-1)])
}

// Result is the outcome of a crowd-enabled skyline run.
type Result struct {
	// Skyline lists the indices of the crowdsourced skyline tuples in
	// ascending order.
	Skyline []int
	// Questions is the total number of crowd questions asked (with
	// |AC| = m crowd attributes, one pair comparison counts m questions,
	// following the paper's accounting in Figures 6c/7c).
	Questions int
	// Rounds is the number of crowd rounds used (the latency metric).
	Rounds int
	// WorkerAnswers is the total number of individual worker judgments.
	WorkerAnswers int
	// Cost is the monetary cost in dollars under the paper's AMT model
	// (Section 6.2) with the default reward.
	Cost float64
	// Contradictions counts crowd answers that conflicted with the
	// preference tree and were dropped (only nonzero with noisy crowds).
	Contradictions int
	// Truncated reports that a question went unasked because
	// Options.MaxQuestions was spent; the skyline then holds every tuple
	// not yet proven dominated (the optimistic readout).
	Truncated bool
}

// session carries the machine-part state shared by every algorithm: the
// dataset, the crowd platform, one preference graph per crowd attribute,
// the voting policy, the co-domination frequency counter, and every
// tuple's readout.
type session struct {
	d      *dataset.Dataset
	pf     crowd.Platform
	opts   Options
	graphs []*prefgraph.Graph
	policy voting.Policy
	fc     *skyline.FreqCounter
	// ix is the dominance index of the run, built (or adopted from
	// Options.Index) by prepMachine after the degenerate-case
	// preprocessing. Every schedule reads DS(t) from its bitmap rows.
	ix *skyline.Index

	// status is every tuple's readout, written by setStatus as the SKY_AK
	// tuples are read out and pipelines complete. undecidedPos and
	// dominatedPos mirror it over the index's positions, so a bitmap row
	// meets them word by word: ParallelSL admission waits on the
	// undecided members of DS(t), and P1 drops the dominated ones.
	status       []status
	undecidedPos bitset.Set
	dominatedPos bitset.Set
	// kept, when non-nil, receives each completed pipeline by tuple, for
	// readouts that need more than the status (CrowdSkyProbabilistic).
	kept []*tupleEval

	// exhausted is latched once a question went unasked for want of
	// budget.
	exhausted bool
	// progressTotal is the estimated total question count, used to feed
	// the voting policy run progress; 0 means no progress estimate.
	progressTotal int
	// trace receives the span tree; nil means tracing is disabled and
	// every emission site reduces to a pointer comparison.
	trace telemetry.Tracer
	// ctx is the caller-provided base context (never nil after
	// newSession); runCtx carries the run span once startRun started it,
	// and rounds/sub-spans parent under it.
	ctx     context.Context
	runCtx  context.Context
	runSpan *telemetry.Span
	// p3Removed totals the dominating-set members probing removed, and
	// voteEscalations the pairs the voting policy gave more than its
	// nominal ω; finish writes them, and the P1/P2 totals of every qgen,
	// onto the run span. They count only under tracing.
	p3Removed, voteEscalations int

	// gen is the calling goroutine's question generation, helpers the
	// fan-out goroutines, each with a qgen of its own, job the current
	// fan-out's work, and wg the helpers still doing it.
	gen     qgen
	helpers []*helper
	job     job
	wg      sync.WaitGroup

	// useT selects whether completeness decisions may use transitive
	// inference through the preference tree. The paper introduces the tree
	// with pruning P2 (Section 3.3), so runs without P2/P3 decide from
	// direct answers only.
	useT bool

	// direct records the raw aggregated answer of every question asked
	// after prepMachine, keyed by (min tuple, max tuple, attribute) with
	// the preference normalized to that orientation. Pruning variants
	// that do not use the preference tree (DSet and P1 alone — the tree is
	// introduced with P2, Section 3.3) decide completeness from these
	// direct answers only, reproducing the paper's stage decomposition in
	// Figures 6-7. It is nil under useT, where nothing reads it. The
	// degenerate-case answers before prepMachine are not recorded: those
	// pairs are equal in AK, so no dominating set relates them.
	direct map[directKey]crowd.Preference

	alive []bool // false for tuples removed by degenerate-case preprocessing
	twin  []int  // twin[i] = j when i was removed as an exact duplicate of j in AK and equal in AC; -1 otherwise
}

// directKey identifies an asked question with a normalized orientation
// (A < B).
type directKey struct{ a, b, attr int }

// votingPolicy returns p, or one worker per question when p is nil.
func votingPolicy(p voting.Policy) voting.Policy {
	if p == nil {
		return voting.Static{Omega: 1}
	}
	return p
}

func newSession(d *dataset.Dataset, pf crowd.Platform, opts Options) *session {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	s := &session{
		d:      d,
		pf:     pf,
		opts:   opts,
		policy: votingPolicy(opts.Voting),
		useT:   opts.P2 || opts.P3,
		trace:  opts.Tracer,
		ctx:    ctx,
		status: make([]status, d.N()),
		alive:  make([]bool, d.N()),
		twin:   make([]int, d.N()),
	}
	s.gen.ss = s
	for i := range s.alive {
		s.alive[i] = true
		s.twin[i] = -1
	}
	s.graphs = make([]*prefgraph.Graph, d.CrowdDims())
	for j := range s.graphs {
		s.graphs[j] = prefgraph.New(d.N())
	}
	s.seedStoredValues()
	return s
}

// startRun opens the run's root span, whose algo attribute names the
// schedule; every round and machine-phase span parents under it, and
// finish closes it.
func (ss *session) startRun(algo string) {
	ss.runCtx, ss.runSpan = telemetry.StartSpan(ss.ctx, ss.trace, "run")
	if ss.runSpan != nil {
		ss.runSpan.SetAttr("algo", algo)
		ss.runSpan.SetAttr("n", strconv.Itoa(ss.d.N()))
		ss.runSpan.SetAttr("crowd_dims", strconv.Itoa(ss.d.CrowdDims()))
	}
}

// runContext returns the context rounds should run under: the run-span
// context once the run started, else the caller's base context.
func (ss *session) runContext() context.Context {
	if ss.runCtx != nil {
		return ss.runCtx
	}
	return ss.ctx
}

// seedStoredValues pre-loads the preference graphs with the relations
// implied by stored crowd-attribute values (the partial-missing scenario
// of Example 1): per attribute, the stored tuples are sorted by value and
// chained with preference/equality edges, so transitivity makes every
// stored-stored relation available without a single crowd question.
func (ss *session) seedStoredValues() {
	d := ss.d
	for j := range ss.graphs {
		var stored []int
		for t := 0; t < d.N(); t++ {
			if d.CrowdValueKnown(t, j) {
				stored = append(stored, t)
			}
		}
		if len(stored) < 2 {
			continue
		}
		sort.SliceStable(stored, func(a, b int) bool {
			return d.Latent(stored[a], j) < d.Latent(stored[b], j)
		})
		g := ss.graphs[j]
		for k := 1; k < len(stored); k++ {
			prev, cur := stored[k-1], stored[k]
			if d.Latent(prev, j) == d.Latent(cur, j) {
				g.AddEqual(prev, cur)
			} else {
				g.AddPrefer(prev, cur)
			}
		}
	}
}

// sortByDSSize orders tuples by ascending dominating-set size (stable), the
// P1 evaluation order of Lemma 3.
func (ss *session) sortByDSSize(order []int) {
	slices.SortStableFunc(order, func(x, y int) int {
		return cmp.Compare(ss.ix.DominatorCount(x), ss.ix.DominatorCount(y))
	})
}

// pair is an unordered pair of tuples, or of positions in a pipeline's
// dominating set (P3's probe list), packed into one word (min in the
// high half, so the canonical form a() < b() is preserved). A single
// integer key keeps the per-round dedup maps and probe slices
// allocation-light; the zero pair stands in where the old struct used
// pair{}.
type pair uint64

func makePair(a, b int) pair {
	if a > b {
		a, b = b, a
	}
	return pair(uint64(a)<<32 | uint64(b))
}

// a returns the smaller tuple index of the pair.
func (p pair) a() int { return int(p >> 32) }

// b returns the larger tuple index of the pair.
func (p pair) b() int { return int(p & 0xffffffff) }

// pairKnown reports whether the relation between s and t is known on every
// crowd attribute, under the current inference mode (see useT).
func (ss *session) pairKnown(s, t int) bool {
	for j := range ss.graphs {
		if !ss.attrKnown(s, t, j) {
			return false
		}
	}
	return true
}

// attrKnown reports whether the relation of (s, t) on crowd attribute j is
// available to the current pruning configuration: from stored crowd values
// (the partial-missing scenario), via the preference tree when useT, or
// via a direct answer otherwise.
func (ss *session) attrKnown(s, t, j int) bool {
	if _, ok := ss.seededAnswer(s, t, j); ok {
		return true
	}
	if ss.useT {
		return ss.graphs[j].Comparable(s, t)
	}
	_, ok := ss.directAnswer(s, t, j)
	return ok
}

// seededAnswer resolves (s, t) on crowd attribute j from stored values
// when both sides are stored (Example 1's partial-missing case): such
// pairs cost no crowd questions. Oriented so First means s is preferred.
func (ss *session) seededAnswer(s, t, j int) (crowd.Preference, bool) {
	if !ss.d.CrowdValueKnown(s, j) || !ss.d.CrowdValueKnown(t, j) {
		return 0, false
	}
	sv, tv := ss.d.Latent(s, j), ss.d.Latent(t, j)
	switch {
	case sv < tv:
		return crowd.First, true
	case tv < sv:
		return crowd.Second, true
	default:
		return crowd.Equal, true
	}
}

// unknownAttrs appends, for the pair (s,t), one Request per crowd attribute
// whose relation is still unknown, and returns the extended slice. backup
// is the number of further dominators pending against the same target
// tuple (0 when this is the last check or the question is a probe). Under
// the round-robin strategy only the first unknown attribute is asked; the
// caller re-polls after the answer lands and may find the pair decided.
func (ss *session) unknownAttrs(s, t, backup int, reqs []crowd.Request) []crowd.Request {
	workers := ss.workersFor(s, t, backup)
	for j := range ss.graphs {
		if !ss.attrKnown(s, t, j) {
			reqs = append(reqs, crowd.Request{Q: crowd.Question{A: s, B: t, Attr: j}, Workers: workers})
			if ss.opts.RoundRobinAC {
				break
			}
		}
	}
	return reqs
}

// workersFor returns the voting policy's worker count for the pair (s, t)
// from everything the session knows about it: importance, run progress
// (once prepMachine estimated the total) and backup. Under tracing it
// counts the pairs given more than the policy's nominal ω, its answer to
// the zero Context.
func (ss *session) workersFor(s, t, backup int) int {
	ctx := voting.Context{Freq: ss.freq(s, t), Backup: backup}
	if ss.progressTotal > 0 {
		ctx.HasProgress = true
		ctx.Progress = min(float64(ss.pf.Stats().Questions())/float64(ss.progressTotal), 1)
	}
	workers := ss.policy.Workers(ctx)
	if ss.trace != nil && workers > ss.policy.Workers(voting.Context{}) {
		ss.voteEscalations++
	}
	return workers
}

// estimateTotalQuestions predicts how many questions the run will ask, for
// progress-aware voting. With the preference tree enabled (P2/P3), the
// transitive reductions leave roughly 1.3 questions per incomplete tuple
// empirically; without it, the expected cost of a tuple is the harmonic
// cost of scanning its dominating set until the first killer. The estimate
// only anchors the progress fraction; accuracy within tens of percent keeps
// the annealed policy budget-neutral.
func (ss *session) estimateTotalQuestions() int {
	total := 0.0
	for t := range ss.alive {
		size := ss.ix.DominatorCount(t)
		if !ss.alive[t] || size == 0 {
			continue
		}
		if ss.useT {
			total += 1.3
		} else {
			total += 1 + math.Log(float64(size))
		}
	}
	return int(total) * len(ss.graphs)
}

// budgetLeft reports whether more questions may be asked; it latches
// exhaustion once the cap is hit.
func (ss *session) budgetLeft() bool {
	if ss.opts.MaxQuestions <= 0 {
		return true
	}
	if ss.pf.Stats().Questions() >= ss.opts.MaxQuestions {
		ss.exhausted = true
	}
	return !ss.exhausted
}

// attrStrictlyDefers reports that t is known strictly preferred over s on
// crowd attribute j, under the current inference mode.
func (ss *session) attrStrictlyDefers(s, t, j int) bool {
	if ss.useT {
		return ss.graphs[j].Known(s, t) == prefgraph.Defer
	}
	pref, ok := ss.directAnswer(s, t, j)
	return ok && pref == crowd.Second
}

// cannotWeaklyPrefer reports that s ⪯AC t is already impossible: some
// crowd attribute is known to strictly prefer t. Used by the round-robin
// strategy to skip a pair's remaining attributes.
func (ss *session) cannotWeaklyPrefer(s, t int) bool {
	for j := range ss.graphs {
		if ss.attrStrictlyDefers(s, t, j) {
			return true
		}
	}
	return false
}

// pairIncomparable reports that s and t are already known strictly
// preferred on one attribute each in opposite directions, so neither can
// AC-dominate the other regardless of the unanswered attributes.
func (ss *session) pairIncomparable(s, t int) bool {
	return ss.cannotWeaklyPrefer(s, t) && ss.cannotWeaklyPrefer(t, s)
}

// freq returns freq(s,t). The counter is nil only while the
// degenerate-case pairs are asked, before prepMachine sets it; freq is 0
// for them.
func (ss *session) freq(s, t int) int {
	if ss.fc == nil {
		return 0
	}
	return ss.fc.Freq(s, t)
}

// apply folds a round of crowd answers into the preference graphs, one
// fan-out item per crowd attribute, and then, when one is kept, into the
// direct-answer record.
func (ss *session) apply(answers []crowd.Answer) {
	ss.job.section, ss.job.answers = foldAnswers, answers
	ss.fanOut(len(ss.graphs), len(answers), applyFanOut)
	if ss.direct == nil {
		return
	}
	for _, a := range answers {
		key := directKey{a.Q.A, a.Q.B, a.Q.Attr}
		pref := a.Pref
		if key.a > key.b {
			key.a, key.b = key.b, key.a
			pref = pref.Flip()
		}
		ss.direct[key] = pref
	}
}

// fold records, in order, the answers on crowd attribute j in its
// preference graph.
func (ss *session) fold(j int, answers []crowd.Answer) {
	g := ss.graphs[j]
	for _, a := range answers {
		if a.Q.Attr != j {
			continue
		}
		switch a.Pref {
		case crowd.First:
			g.AddPrefer(a.Q.A, a.Q.B)
		case crowd.Second:
			g.AddPrefer(a.Q.B, a.Q.A)
		case crowd.Equal:
			g.AddEqual(a.Q.A, a.Q.B)
		}
	}
}

// directAnswer returns the recorded raw answer for (s, t) on attr, oriented
// so that First means s is preferred. Stored-value (seeded) relations
// count as direct answers: they are certain and free.
func (ss *session) directAnswer(s, t, attr int) (crowd.Preference, bool) {
	if pref, ok := ss.seededAnswer(s, t, attr); ok {
		return pref, true
	}
	key := directKey{s, t, attr}
	flip := false
	if key.a > key.b {
		key.a, key.b = key.b, key.a
		flip = true
	}
	pref, ok := ss.direct[key]
	if !ok {
		return 0, false
	}
	if flip {
		pref = pref.Flip()
	}
	return pref, true
}

// directWeaklyPrefers reports s ⪯AC t using direct answers only: every
// crowd attribute was asked and answered "s preferred" or "equal".
func (ss *session) directWeaklyPrefers(s, t int) bool {
	for j := range ss.graphs {
		pref, ok := ss.directAnswer(s, t, j)
		if !ok || pref == crowd.Second {
			return false
		}
	}
	return true
}

// askRound asks one round of requests, cut to the remaining budget, and
// applies the answers, wrapping the (potentially slow, potentially
// real-money) platform call in a round span. It is the one ask path of
// every algorithm.
func (ss *session) askRound(reqs []crowd.Request) {
	if len(reqs) == 0 || !ss.budgetLeft() {
		return
	}
	if limit := ss.opts.MaxQuestions; limit > 0 {
		if room := limit - ss.pf.Stats().Questions(); len(reqs) > room {
			reqs = reqs[:room]
		}
	}
	if ss.trace == nil {
		// Tracing off, but the caller's context still reaches the
		// platform for cancellation.
		ss.apply(crowd.AskWithContext(ss.runContext(), ss.pf, reqs))
		return
	}
	rctx, span := telemetry.StartSpan(ss.runContext(), ss.trace, "round")
	span.SetAttr("round", strconv.Itoa(ss.pf.Stats().Rounds()+1))
	span.SetAttr("questions", strconv.Itoa(len(reqs)))
	answers := crowd.AskWithContext(rctx, ss.pf, reqs)
	span.End()
	ss.apply(answers)
}

// acWeaklyPrefers reports whether s ⪯AC t is known: on every crowd
// attribute, s is preferred over or equal to t. Combined with s ≺AK t this
// establishes s ≺A t. Under useT the check includes transitive inference;
// otherwise only direct answers count.
func (ss *session) acWeaklyPrefers(s, t int) bool {
	if !ss.useT {
		return ss.directWeaklyPrefers(s, t)
	}
	for _, g := range ss.graphs {
		if !g.WeaklyPrefers(s, t) {
			return false
		}
	}
	return true
}

// acCompare reports the known AC-dominance between s and t: 1 when
// s ≺AC t (weak preference on every crowd attribute, strict on at least
// one), -1 when t ≺AC s, and 0 when neither is known. It reads each
// attribute's relation once and answers both directions.
func (ss *session) acCompare(s, t int) int {
	sWeak, tWeak := true, true
	sStrict, tStrict := false, false
	for _, g := range ss.graphs {
		switch g.Known(s, t) {
		case prefgraph.Prefer:
			tWeak, sStrict = false, true
		case prefgraph.Defer:
			sWeak, tStrict = false, true
		case prefgraph.Equal:
			// weak both ways, strict neither
		default:
			return 0
		}
		if !sWeak && !tWeak {
			return 0
		}
	}
	switch {
	case sWeak && sStrict:
		return 1
	case tWeak && tStrict:
		return -1
	}
	return 0
}

// acEqual reports whether s and t are known equal on every crowd attribute.
func (ss *session) acEqual(s, t int) bool {
	for _, g := range ss.graphs {
		if g.Known(s, t) != prefgraph.Equal {
			return false
		}
	}
	return true
}

// contradictions sums dropped conflicting answers across the per-attribute
// preference graphs.
func (ss *session) contradictions() int {
	total := 0
	for _, g := range ss.graphs {
		total += g.Contradictions()
	}
	return total
}

// preprocessDegenerate implements Algorithm 1, lines 1-3: for tuple pairs
// with identical values on every known attribute, the crowd decides the AC
// preference and the less preferred tuple is removed from R. A pair that
// is equal in AC as well cannot dominate either way; the later tuple is
// folded into the earlier one as a twin and re-added to the skyline at
// readout. Each compared pair is one round.
//
// Pairs are visited in the order of the all-pairs scan (i ascending, then
// j > i ascending), but only pairs that can qualify are looked at: equal
// known rows are equal on the first known attribute, so with the tuples
// sorted by that attribute the partners of i lie in the contiguous run of
// keys equal to i's. Without known attributes every pair is identical in
// AK, and a constant key makes every pair a candidate.
func (ss *session) preprocessDegenerate() {
	d := ss.d
	n := d.N()
	key := func(t int) float64 {
		if d.KnownDims() == 0 {
			return 0
		}
		return d.Known(t, 0)
	}
	byKey := make([]int, n)
	for t := range byKey {
		byKey[t] = t
	}
	// cmp.Compare orders NaN first, so the order is total and a NaN key,
	// which equals nothing, never splits a run of finite keys.
	slices.SortFunc(byKey, func(a, b int) int { return cmp.Compare(key(a), key(b)) })
	rank := make([]int, n)
	for r, t := range byKey {
		rank[t] = r
	}
	var partners []int
	for i := 0; i < n; i++ {
		if !ss.alive[i] {
			continue
		}
		// Equality is static, so the partners can be found up front;
		// liveness changes as pairs resolve and is checked per visit.
		partners = partners[:0]
		ki := key(i)
		for _, step := range [2]int{-1, 1} {
			for r := rank[i] + step; r >= 0 && r < n && key(byKey[r]) == ki; r += step {
				if j := byKey[r]; j > i && skyline.EqualKnown(d, i, j) {
					partners = append(partners, j)
				}
			}
		}
		slices.Sort(partners)
		for _, j := range partners {
			if !ss.alive[j] {
				continue
			}
			ss.askRound(ss.unknownAttrs(i, j, 0, nil))
			switch c := ss.acCompare(i, j); {
			case c > 0:
				ss.alive[j] = false
			case c < 0:
				ss.alive[i] = false
			case ss.acEqual(i, j):
				// Equal on all attributes: identical tuples share fate, so
				// fold j into i and re-add it at readout.
				ss.alive[j] = false
				ss.twin[j] = i
			default:
				// Incomparable in AC: neither can ever dominate the other
				// (no strict preference exists in AK), so both stay; the
				// pruning lemmas are unaffected because neither tuple can
				// appear in a dominating set of the other.
			}
			if !ss.alive[i] {
				break
			}
		}
	}
}

// finish assembles the Result from the session state and the tuples'
// readouts (only alive tuples are consulted). Twins of skyline tuples are
// re-added.
func (ss *session) finish() *Result {
	var sky []int
	for t := 0; t < ss.d.N(); t++ {
		if ss.alive[t] && ss.status[t] == inSkyline {
			sky = append(sky, t)
		} else if tw := ss.twin[t]; tw >= 0 && ss.status[tw] == inSkyline {
			sky = append(sky, t)
		}
	}
	st := ss.pf.Stats().Snapshot()
	if ss.runSpan != nil {
		p1, p2 := ss.gen.p1Removed, ss.gen.p2Removed
		for _, h := range ss.helpers {
			p1, p2 = p1+h.gen.p1Removed, p2+h.gen.p2Removed
		}
		ss.runSpan.SetAttr("questions", strconv.Itoa(st.Questions))
		ss.runSpan.SetAttr("rounds", strconv.Itoa(st.Rounds))
		ss.runSpan.SetAttr("skyline", strconv.Itoa(len(sky)))
		ss.runSpan.SetAttr("p1_removed", strconv.Itoa(p1))
		ss.runSpan.SetAttr("p2_removed", strconv.Itoa(p2))
		ss.runSpan.SetAttr("p3_removed", strconv.Itoa(ss.p3Removed))
		ss.runSpan.SetAttr("vote_escalations", strconv.Itoa(ss.voteEscalations))
		if ss.exhausted {
			ss.runSpan.SetAttr("truncated", "true")
			ss.runSpan.SetAttr("budget", strconv.Itoa(ss.opts.MaxQuestions))
		}
		ss.runSpan.End()
	}
	return &Result{
		Skyline:        sky,
		Questions:      st.Questions,
		Rounds:         st.Rounds,
		WorkerAnswers:  st.WorkerAnswers,
		Cost:           ss.pf.Stats().Cost(crowd.DefaultReward),
		Contradictions: ss.contradictions(),
		Truncated:      ss.exhausted,
	}
}

// prepMachine pays the machine part of a run in one place, after the
// degenerate-case preprocessing fixed the alive set: it builds (or adopts
// from Options.Index) the dominance index, takes the frequency counter
// from its bitmap, marks every indexed tuple undecided, seeds the progress
// estimate, and, when completeness is decided from direct answers, sizes
// the direct-answer map for the expected question volume. Every algorithm
// calls it exactly once; nothing downstream runs another pair-wise
// dominance test, and DS(t) stays in the bitmap.
func (ss *session) prepMachine() {
	allAlive := true
	for t := 0; t < ss.d.N(); t++ {
		if !ss.alive[t] {
			allAlive = false
			break
		}
	}
	if shared := ss.opts.Index; allAlive && shared != nil && shared.Matches(ss.d) {
		ss.ix = shared
	} else {
		var mask []bool
		if !allAlive {
			mask = ss.alive
		}
		_, ispan := telemetry.StartSpan(ss.runContext(), ss.trace, "index_build")
		ss.ix = skyline.NewIndexAlive(ss.d, mask)
		if ispan != nil {
			st := ss.ix.Stats()
			ispan.SetAttr("n", strconv.Itoa(st.N))
			ispan.SetAttr("pairs", strconv.Itoa(st.Pairs))
			ispan.SetAttr("bitmap_bytes", strconv.FormatInt(st.BitmapBytes, 10))
			ispan.End()
		}
	}
	ss.fc = ss.ix.FreqCounter()
	m := ss.ix.Stats().N
	ss.undecidedPos, ss.dominatedPos = bitset.New(m), bitset.New(m)
	for p := 0; p < m; p++ {
		ss.undecidedPos.Add(p)
	}
	ss.progressTotal = ss.estimateTotalQuestions()
	if !ss.useT {
		ss.direct = make(map[directKey]crowd.Preference, ss.progressTotal)
	}
}

// setStatus records t's readout, the one place that writes status and
// its position-space mirrors.
func (ss *session) setStatus(t int, st status) {
	ss.status[t] = st
	if p := ss.ix.Pos(t); p >= 0 {
		ss.undecidedPos.Remove(p)
		if st == dominated {
			ss.dominatedPos.Add(p)
		}
	}
}
