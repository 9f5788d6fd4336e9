// Package voting implements the worker-assignment strategies of Section 5:
// static majority voting, which assigns the same number of workers ω to
// every question, and dynamic majority voting, which grades questions by
// their importance freq(u,v) = |{x : u ≺AK x ∧ v ≺AK x}| and assigns ω+2,
// ω, or ω−2 workers without increasing the total worker budget.
//
// Every strategy is a Policy: it answers Workers(Context), and the engine
// asks it once per pair. Each policy reads only the Context fields it
// needs: Static none, DynamicAlphaBeta Freq, Annealed Progress, and Smart
// all three. The zero Context is the "no context" value (no progress
// estimate, freq 0, no backup); the engine asks with it where it knows
// nothing of the question, and reads the answer as the policy's nominal ω.
package voting

import (
	"fmt"
	"math"
	"sort"
)

// DefaultOmega is the paper's default worker count per question (ω = 5).
const DefaultOmega = 5

// Policy decides how many workers to assign to a question from what the
// engine knows about it. Implementations must return an odd, positive
// count so majority voting is well defined.
type Policy interface {
	Workers(ctx Context) int
}

// Context carries everything the engine knows about a question's role at
// the moment it is issued, for query-dependent worker assignment
// (Section 5's "importance of questions" made concrete):
//
//   - Progress: fraction of the expected question budget already spent,
//     in [0,1], read only when HasProgress is set. Early answers are
//     reused by transitivity across many later pruning decisions, so early
//     mistakes propagate furthest.
//   - Freq: the co-domination frequency freq(u,v) of the pair — how many
//     tuples both sides dominate, the paper's importance measure.
//   - Backup: how many further dominators remain to be checked against the
//     same target tuple after this question. A kill-check with backup 0 is
//     the tuple's last line of defense — if it is answered wrong the tuple
//     enters the skyline incorrectly — while a mistake on a question with
//     backup ≥ 1 is usually caught by the next dominator.
//
// The zero Context is the "no context" value: no progress estimate, freq
// 0 and no backup.
type Context struct {
	Progress    float64
	HasProgress bool
	Freq        int
	Backup      int
}

// Static assigns Omega workers to every question (the StaticVoting method
// of Section 6.1).
type Static struct {
	Omega int
}

// Workers implements Policy.
func (s Static) Workers(Context) int { return s.Omega }

// String names the policy for experiment output.
func (s Static) String() string { return fmt.Sprintf("StaticVoting(ω=%d)", s.Omega) }

// DynamicAlphaBeta is the raw dynamic rule of Section 5: given thresholds
// α < β, a question with freq < α gets ω−2 workers, freq in [α, β) gets ω,
// and freq ≥ β gets ω+2.
type DynamicAlphaBeta struct {
	Omega       int
	Alpha, Beta int
}

// Workers implements Policy from ctx.Freq.
func (d DynamicAlphaBeta) Workers(ctx Context) int {
	switch {
	case ctx.Freq >= d.Beta:
		return d.Omega + 2
	case ctx.Freq >= d.Alpha:
		return d.Omega
	default:
		return max(1, d.Omega-2)
	}
}

// String names the policy for experiment output.
func (d DynamicAlphaBeta) String() string {
	return fmt.Sprintf("DynamicVoting(ω=%d, α=%d, β=%d)", d.Omega, d.Alpha, d.Beta)
}

// NewDynamicPercentile tunes a DynamicAlphaBeta policy the way the paper's
// experiments do (Section 6.1): the top hiFrac of the candidate-question
// importance distribution gets ω+2 workers and the bottom loFrac gets ω−2,
// keeping the expected total worker budget equal to static voting when
// hiFrac == loFrac (the paper uses 30%/30%). freqs is the importance of
// every candidate question; it may be in any order and is not modified.
func NewDynamicPercentile(omega int, freqs []int, loFrac, hiFrac float64) DynamicAlphaBeta {
	if len(freqs) == 0 {
		return DynamicAlphaBeta{Omega: omega, Alpha: 0, Beta: math.MaxInt}
	}
	sorted := append([]int(nil), freqs...)
	sort.Ints(sorted)
	quantile := func(q float64) int {
		idx := int(q * float64(len(sorted)))
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		if idx < 0 {
			idx = 0
		}
		return sorted[idx]
	}
	alpha := quantile(loFrac)
	beta := quantile(1 - hiFrac)
	if beta < alpha {
		beta = alpha
	}
	// Degenerate distributions (all frequencies equal) would otherwise
	// push every question into the ω+2 bucket and blow the budget; fall
	// back to static assignment in that case.
	if alpha == beta && sorted[0] == sorted[len(sorted)-1] {
		return DynamicAlphaBeta{Omega: omega, Alpha: 0, Beta: math.MaxInt}
	}
	return DynamicAlphaBeta{Omega: omega, Alpha: alpha, Beta: beta}
}

// CorrectProbability returns the paper's binomial model of Section 5 for
// the probability that majority voting over ω workers (each independently
// correct with probability p) yields the correct answer:
//
//	P = Σ_{i=⌈ω/2⌉}^{ω} C(ω,i) p^i (1−p)^{ω−i}
//
// ω must be positive; it is typically odd.
func CorrectProbability(omega int, p float64) float64 {
	if omega <= 0 {
		return 0
	}
	total := 0.0
	for i := (omega + 1) / 2; i <= omega; i++ {
		total += binomial(omega, i) * math.Pow(p, float64(i)) * math.Pow(1-p, float64(omega-i))
	}
	return total
}

func binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	res := 1.0
	for i := 1; i <= k; i++ {
		res = res * float64(n-k+i) / float64(i)
	}
	return res
}
