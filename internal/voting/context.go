package voting

import "fmt"

// Context carries everything the engine knows about a question's role at
// the moment it is issued, for query-dependent worker assignment
// (Section 5's "importance of questions" made concrete):
//
//   - Progress: fraction of the expected question budget already spent.
//     Early answers are reused by transitivity across many later pruning
//     decisions, so early mistakes propagate furthest.
//   - Freq: the co-domination frequency freq(u,v) of the pair — how many
//     tuples both sides dominate, the paper's importance measure.
//   - Backup: how many further dominators remain to be checked against the
//     same target tuple after this question. A kill-check with backup 0 is
//     the tuple's last line of defense — if it is answered wrong the tuple
//     enters the skyline incorrectly — while a mistake on a question with
//     backup ≥ 1 is usually caught by the next dominator.
type Context struct {
	Progress float64
	Freq     int
	Backup   int
}

// ContextPolicy is the most informed policy interface; the engine prefers
// it over ProgressPolicy and Policy when implemented.
type ContextPolicy interface {
	Policy
	WorkersFor(ctx Context) int
}

// Smart is the context-aware dynamic voting policy: it boosts the
// questions whose errors are most damaging (early in the run, or with high
// co-domination frequency, or the last remaining check of a tuple) and
// funds the boost by reducing workers on questions whose errors are
// recoverable (a later dominator of the same tuple still gets a say).
type Smart struct {
	// Omega is the base (static-equivalent) worker count.
	Omega int
	// EarlyFrac boosts questions in the first fraction of the run.
	EarlyFrac float64
	// BetaFreq boosts questions with freq(u,v) at or above this value.
	BetaFreq int
}

// NewSmart returns a Smart policy with the paper-aligned 30% early boost
// and a frequency threshold (pass the 90th percentile of the candidate
// frequency distribution; see core.SmartVoting).
func NewSmart(omega, betaFreq int) Smart {
	return Smart{Omega: omega, EarlyFrac: 0.3, BetaFreq: betaFreq}
}

// WorkersFor implements ContextPolicy.
func (s Smart) WorkersFor(ctx Context) int {
	switch {
	case ctx.Progress < s.EarlyFrac || ctx.Freq >= s.BetaFreq:
		return s.Omega + 2
	case ctx.Backup >= 1:
		return maxInt(1, s.Omega-2)
	default:
		return s.Omega
	}
}

// Workers implements Policy for callers without context.
func (s Smart) Workers(freq int) int {
	if freq >= s.BetaFreq {
		return s.Omega + 2
	}
	return s.Omega
}

// String names the policy for experiment output.
func (s Smart) String() string {
	return fmt.Sprintf("SmartVoting(ω=%d, early<%.0f%%, β=%d)", s.Omega, s.EarlyFrac*100, s.BetaFreq)
}
