// Package core implements the paper's crowd-enabled skyline algorithms:
//
//   - CrowdSky (Algorithm 1): the serial cost-minimizing algorithm with the
//     dominating-set question generation and the three pruning methods P1
//     (early pruning of complete non-skyline tuples, Section 3.2), P2
//     (transitive reduction of dominating sets in AC, Section 3.3) and P3
//     (probing dominating sets, Section 3.4), each independently
//     toggleable for the ablations of Figures 6-7.
//   - ParallelDSet (Section 4.1): latency reduction by partitioning on
//     dominating-set sizes and disjointness.
//   - ParallelSL (Algorithm 2, Section 4.2): latency reduction by skyline
//     layers and immediate-dominator dependencies.
//   - Baseline (Section 6.1): crowd-powered tournament sort over the crowd
//     attributes followed by a machine skyline.
//   - Unary (Section 6.1, Figure 11): the quantitative-question comparator
//     simulating Lofi et al. [12].
//
// The three crowd-enabled skyline algorithms share one per-tuple pipeline
// (tupleEval: P1/P2 reduction, P3 probing, Q(t) with the C3 early break)
// and one round driver (session.drive) that advances every active
// pipeline, asks the pairs they wait on as one round, and reads out the
// pipelines that completed. They differ only in the rule that admits
// pipelines: CrowdSky starts the next tuple in P1 order once nothing is
// active, ParallelDSet the next disjoint batch of one size group once
// nothing is active, and ParallelSL every tuple whose immediate dominators
// are all complete. All algorithms exchange questions with a
// crowd.Platform and never touch the latent attribute values.
package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"
	"strconv"

	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/prefgraph"
	"crowdsky/internal/skyline"
	"crowdsky/internal/telemetry"
	"crowdsky/internal/voting"
)

// Options configures a crowd-enabled skyline run.
type Options struct {
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
	// Voting decides the number of workers per question from the
	// question's importance. Nil defaults to a single worker, which is the
	// perfect-crowd setting of Sections 3-4.
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

// AllPruning returns the full CrowdSky configuration (P1+P2+P3).
func AllPruning() Options { return Options{P1: true, P2: true, P3: true} }

// SmartVoting calibrates voting.Smart for the dataset behind ix: β is the
// 95th percentile of the importance freq(u,v) over the questions CrowdSky
// may ask, every dominating-set question plus at most 32 probing pairs per
// tuple.
func SmartVoting(ix *skyline.Index, omega int) voting.Smart {
	const probeCap = 32 // bounds the quadratic probe enumeration per tuple
	fc := ix.FreqCounter()
	var freqs []int
	for t, ds := range ix.DominatingSets() {
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
	// preprocessing, and sets its alive-restricted dominating sets.
	ix   *skyline.Index
	sets [][]int

	// status is every tuple's readout, written by drive as pipelines
	// complete; P1 reads the dominated ones.
	status []status
	// kept, when non-nil, receives each completed pipeline by tuple, for
	// readouts that need more than the status (CrowdSkyProbabilistic).
	kept []*tupleEval

	// exhausted is latched once a question went unasked for want of
	// budget.
	exhausted bool
	// progressTotal is the estimated total question count, used to feed
	// progress-aware voting policies (voting.ProgressPolicy); 0 disables
	// progress tracking.
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
	// p1Removed, p2Removed and p3Removed total the dominating-set members
	// each pruning method removed, and voteEscalations the pairs the
	// voting policy gave more than its nominal ω; finish writes them onto
	// the run span. They count only under tracing.
	p1Removed, p2Removed, p3Removed, voteEscalations int

	// pruneBuf and probeKeys are the question-generation scratch, reused
	// across tuples: pruneDS reduces a dominating set in pruneBuf before
	// copying out the survivors, and probeOrder sorts P3's pairs by their
	// precomputed frequencies in probeKeys.
	pruneBuf  []int
	probeKeys []keyedPair

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

func newSession(d *dataset.Dataset, pf crowd.Platform, opts Options) *session {
	policy := opts.Voting
	if policy == nil {
		policy = voting.Static{Omega: 1}
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	s := &session{
		d:      d,
		pf:     pf,
		opts:   opts,
		policy: policy,
		useT:   opts.P2 || opts.P3,
		trace:  opts.Tracer,
		ctx:    ctx,
		status: make([]status, d.N()),
		alive:  make([]bool, d.N()),
		twin:   make([]int, d.N()),
	}
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

// startRun opens the run's root span for the named algorithm; every
// round and machine-phase span parents under it, and finish closes it.
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
			if skyline.EqEps(d.Latent(prev, j), d.Latent(cur, j)) {
				g.AddEqual(prev, cur)
			} else {
				g.AddPrefer(prev, cur)
			}
		}
	}
}

// sortByDSSize orders tuples by ascending dominating-set size (stable), the
// P1 evaluation order of Lemma 3.
func sortByDSSize(order []int, sets [][]int) {
	sort.SliceStable(order, func(x, y int) bool {
		return len(sets[order[x]]) < len(sets[order[y]])
	})
}

// pair is an unordered tuple pair packed into one word (min in the high
// half, so the canonical form a() < b() is preserved). A single integer
// key keeps the per-round dedup maps and probe slices allocation-light;
// the zero pair stands in where the old struct used pair{}.
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
//
//skylint:hotpath
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
//
//skylint:hotpath
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

// workersFor returns the worker assignment for the pair (s, t): the
// voting policy's decision from the question's importance, plus run
// progress and per-question context when the policy understands them.
func (ss *session) workersFor(s, t, backup int) int {
	f := ss.freq(s, t)
	prog := 1.0
	if ss.progressTotal > 0 {
		prog = float64(ss.pf.Stats().Questions()) / float64(ss.progressTotal)
		if prog > 1 {
			prog = 1
		}
	}
	var workers int
	if cp, ok := ss.policy.(voting.ContextPolicy); ok {
		workers = cp.WorkersFor(voting.Context{Progress: prog, Freq: f, Backup: backup})
	} else if pp, ok := ss.policy.(voting.ProgressPolicy); ok && ss.progressTotal > 0 {
		workers = pp.WorkersAt(prog, f)
	} else {
		workers = ss.policy.Workers(f)
	}
	if ss.trace != nil && workers > ss.policy.Workers(0) {
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
func (ss *session) estimateTotalQuestions(sets [][]int) int {
	total := 0.0
	for t, ds := range sets {
		if !ss.alive[t] || len(ds) == 0 {
			continue
		}
		if ss.useT {
			total += 1.3
		} else {
			total += 1 + math.Log(float64(len(ds)))
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

// freq returns freq(s,t); 0 when the frequency counter is not initialized
// (it is lazily built on first use by algorithms that need it).
func (ss *session) freq(s, t int) int {
	if ss.fc == nil {
		return 0
	}
	return ss.fc.Freq(s, t)
}

// apply folds a round of crowd answers into the preference graphs and,
// when one is kept, the direct-answer record.
//
//skylint:hotpath
func (ss *session) apply(answers []crowd.Answer) {
	for _, a := range answers {
		g := ss.graphs[a.Q.Attr]
		switch a.Pref {
		case crowd.First:
			g.AddPrefer(a.Q.A, a.Q.B)
		case crowd.Second:
			g.AddPrefer(a.Q.B, a.Q.A)
		case crowd.Equal:
			g.AddEqual(a.Q.A, a.Q.B)
		}
		if ss.direct == nil {
			continue
		}
		key := directKey{a.Q.A, a.Q.B, a.Q.Attr}
		pref := a.Pref
		if key.a > key.b {
			key.a, key.b = key.b, key.a
			pref = pref.Flip()
		}
		ss.direct[key] = pref
	}
}

// directAnswer returns the recorded raw answer for (s, t) on attr, oriented
// so that First means s is preferred. Stored-value (seeded) relations
// count as direct answers: they are certain and free.
//
//skylint:hotpath
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
//
//skylint:hotpath
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
// known rows are within skyline.Eps on the first known attribute, so with
// the tuples sorted by that attribute the partners of i lie in the
// contiguous run of keys within Eps of i's. Without known attributes every
// pair is identical in AK, and a constant key makes every pair a candidate.
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
			for r := rank[i] + step; r >= 0 && r < n && skyline.EqEps(key(byKey[r]), ki); r += step {
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
		ss.runSpan.SetAttr("questions", strconv.Itoa(st.Questions))
		ss.runSpan.SetAttr("rounds", strconv.Itoa(st.Rounds))
		ss.runSpan.SetAttr("skyline", strconv.Itoa(len(sky)))
		ss.runSpan.SetAttr("p1_removed", strconv.Itoa(ss.p1Removed))
		ss.runSpan.SetAttr("p2_removed", strconv.Itoa(ss.p2Removed))
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
// from Options.Index) the dominance index, derives the alive-restricted
// dominating sets and the frequency counter from its bitmap, seeds the
// progress estimate, and, when completeness is decided from direct answers,
// sizes the direct-answer map for the expected question volume. Every
// algorithm calls it exactly once; nothing downstream runs another
// pair-wise dominance test.
func (ss *session) prepMachine() [][]int {
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
	ss.sets = ss.ix.DominatingSets()
	ss.fc = ss.ix.FreqCounter()
	ss.progressTotal = ss.estimateTotalQuestions(ss.sets)
	if !ss.useT {
		ss.direct = make(map[directKey]crowd.Preference, ss.progressTotal)
	}
	return ss.sets
}
