// Package crowd is the crowdsourcing platform substrate: the pair-wise
// question/answer model of Section 2.1, worker pools with configurable
// reliability, a simulated platform that answers from latent ground truth
// with Bernoulli worker noise (the paper's synthetic-crowd setup), a
// perfect-oracle platform for the counting experiments of Sections 3-4, an
// interactive stdin platform, record/replay wrappers, and the AMT cost
// model of Section 6.2.
//
// The unit of exchange is the round (Section 2.1, latency): one call to
// Platform.Ask submits a batch of questions that run in parallel and
// returns their aggregated answers. Question, round, and worker accounting
// live here so no algorithm can miscount its own budget.
package crowd

import (
	"context"
	"fmt"
	"sync"
)

// Preference is the ternary outcome of a pair-wise question (s, t): the
// crowd prefers s, prefers t, or finds them equally preferred
// (Section 2.1).
type Preference int8

const (
	// First means the first tuple of the pair is preferred.
	First Preference = iota
	// Second means the second tuple of the pair is preferred.
	Second
	// Equal means the two tuples are equally preferred.
	Equal
)

// String returns "first", "second" or "equal".
func (p Preference) String() string {
	switch p {
	case First:
		return "first"
	case Second:
		return "second"
	case Equal:
		return "equal"
	default:
		return fmt.Sprintf("Preference(%d)", int(p))
	}
}

// Flip returns the preference with the roles of the pair swapped. Pair-wise
// questions are symmetric ((s,t) = (t,s), Section 2.1), so the answer to
// the swapped question is the flipped preference.
func (p Preference) Flip() Preference {
	switch p {
	case First:
		return Second
	case Second:
		return First
	default:
		return Equal
	}
}

// Question is one pair-wise micro-task: compare tuples A and B on crowd
// attribute Attr. A question with |AC| = m crowd attributes is modeled as m
// Questions that are asked in the same round (Section 3 preamble).
type Question struct {
	A, B int // tuple indices
	Attr int // crowd attribute index, 0 <= Attr < |AC|
}

// Request is a question together with the number of workers assigned to it
// by the voting policy (Section 5).
type Request struct {
	Q       Question
	Workers int
}

// Answer is the aggregated (majority-voted) crowd answer to a question.
type Answer struct {
	Q    Question
	Pref Preference
}

// Platform abstracts the crowdsourcing marketplace. One Ask call is one
// round: all submitted questions run in parallel and the call blocks until
// every answer is in (the fixed-time-per-round model of Section 2.1).
// Implementations must answer symmetric questions consistently within a
// round.
type Platform interface {
	// Ask submits a batch of questions as one round and returns one answer
	// per request, in order. Asking an empty batch is a no-op that does
	// not consume a round. Ask must not keep reqs once it returns: the
	// algorithms reuse the slice for their next round.
	Ask(reqs []Request) []Answer
	// Stats returns the accounting accumulated so far.
	Stats() *Stats
}

// ContextPlatform is implemented by platforms that honour a
// context.Context per round: cancellation for remote marketplaces whose
// rounds can block for minutes, and trace-span propagation so a round's
// server-side lifecycle joins the run's trace. Platform itself predates
// context plumbing and keeps its context-free Ask for simulated
// platforms that never block.
type ContextPlatform interface {
	Platform
	// AskCtx is Ask with a context carried to the marketplace.
	AskCtx(ctx context.Context, reqs []Request) []Answer
}

// AskWithContext submits one round on pf, routing through AskCtx when pf
// supports it. Decorators that wrap a Platform should implement
// ContextPlatform and forward the context to their inner platform with
// this helper, so context support survives arbitrary decorator stacks.
func AskWithContext(ctx context.Context, pf Platform, reqs []Request) []Answer {
	if cp, ok := pf.(ContextPlatform); ok {
		return cp.AskCtx(ctx, reqs)
	}
	return pf.Ask(reqs)
}

// RoundStat records the accounting of a single round.
type RoundStat struct {
	// Questions is the number of questions in the round.
	Questions int
	// WorkerUnits is Σ over distinct worker counts ω in the round of
	// ⌈count_ω / QuestionsPerHIT⌉ × ω: the number of (HIT, worker)
	// assignments that must be paid for (Section 6.2 cost formula).
	WorkerUnits int
}

// QuestionsPerHIT is the number of questions bundled into one AMT HIT in
// the paper's real-life experiments ("5 questions are issued at each
// task", Section 6.2).
const QuestionsPerHIT = 5

// DefaultReward is the paper's per-HIT-assignment reward in dollars.
const DefaultReward = 0.02

// Stats accumulates platform accounting across rounds. It is safe for
// concurrent use: recording and reading take an internal mutex, so
// monitoring decorators and HTTP stats handlers can read a live run's
// accounting while rounds record. The zero value is ready to use.
type Stats struct {
	mu            sync.Mutex
	questions     int         // skylint:guardedby mu — total questions asked
	rounds        int         // skylint:guardedby mu — total non-empty Ask calls
	workerAnswers int         // skylint:guardedby mu — total individual worker judgments
	perRound      []RoundStat // skylint:guardedby mu — per-round breakdown, in order

	// byWorkers counts questions per assigned worker count across the
	// whole run, for the HIT-packed cost model.
	byWorkers map[int]int // skylint:guardedby mu
}

// Snapshot is a consistent point-in-time copy of a run's accounting.
type Snapshot struct {
	Questions     int
	Rounds        int
	WorkerAnswers int
	PerRound      []RoundStat
}

// Record books one round containing the given requests. It is exported
// for Platform implementations living outside this package (for example
// the HTTP marketplace client in package crowdserve); in-package platforms
// call it through record.
func (s *Stats) Record(reqs []Request) { s.record(reqs) }

// record books one round containing the given requests.
func (s *Stats) record(reqs []Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.questions += len(reqs)
	s.rounds++
	if s.byWorkers == nil {
		s.byWorkers = make(map[int]int)
	}
	roundByWorkers := make(map[int]int)
	workerAnswers := 0
	for _, r := range reqs {
		w := r.Workers
		if w < 1 {
			w = 1
		}
		roundByWorkers[w]++
		s.byWorkers[w]++
		workerAnswers += w
	}
	s.workerAnswers += workerAnswers
	units := 0
	for w, count := range roundByWorkers {
		units += ((count + QuestionsPerHIT - 1) / QuestionsPerHIT) * w
	}
	s.perRound = append(s.perRound, RoundStat{Questions: len(reqs), WorkerUnits: units})
}

// Questions returns the total number of questions asked so far.
func (s *Stats) Questions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.questions
}

// Rounds returns the number of non-empty Ask calls so far.
func (s *Stats) Rounds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rounds
}

// WorkerAnswers returns the total number of individual worker judgments
// collected so far.
func (s *Stats) WorkerAnswers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workerAnswers
}

// PerRound returns a copy of the per-round breakdown, in round order.
func (s *Stats) PerRound() []RoundStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]RoundStat(nil), s.perRound...)
}

// Snapshot returns a consistent copy of every accumulator at once.
func (s *Stats) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Snapshot{
		Questions:     s.questions,
		Rounds:        s.rounds,
		WorkerAnswers: s.workerAnswers,
		PerRound:      append([]RoundStat(nil), s.perRound...),
	}
}

// Cost returns the total monetary cost in dollars under the paper's AMT
// model: questions are packed into HITs of QuestionsPerHIT across the whole
// run and each HIT assignment pays the reward, so with a constant ω the
// cost is reward × ω × ⌈questions / 5⌉. This global packing is the reading
// that reproduces the paper's Figure 12(a) dollar amounts (a strictly
// per-round ⌈|Q_i|/5⌉ packing would overcharge the serial methods, whose
// rounds rarely fill a HIT). The per-round worker units remain available in
// PerRound for the conservative per-round model.
func (s *Stats) Cost(reward float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	units := 0
	for w, count := range s.byWorkers {
		units += ((count + QuestionsPerHIT - 1) / QuestionsPerHIT) * w
	}
	return reward * float64(units)
}

// MaxRoundSize returns the largest number of questions asked in any single
// round (the parallelism width).
func (s *Stats) MaxRoundSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := 0
	for _, r := range s.perRound {
		if r.Questions > m {
			m = r.Questions
		}
	}
	return m
}
