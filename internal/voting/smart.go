package voting

import "fmt"

// Smart is the context-aware dynamic voting policy: it boosts the
// questions whose errors are most damaging (early in the run, or with high
// co-domination frequency, or the last remaining check of a tuple) and
// funds the boost by reducing workers on questions whose errors are
// recoverable (a later dominator of the same tuple still gets a say).
type Smart struct {
	// Omega is the base (static-equivalent) worker count.
	Omega int
	// EarlyFrac boosts questions in the first fraction of the run; a
	// question without a progress estimate is not early.
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

// Workers implements Policy from every Context field.
func (s Smart) Workers(ctx Context) int {
	early := ctx.HasProgress && ctx.Progress < s.EarlyFrac
	switch {
	case early || ctx.Freq >= s.BetaFreq:
		return s.Omega + 2
	case ctx.Backup >= 1:
		return max(1, s.Omega-2)
	default:
		return s.Omega
	}
}

// String names the policy for experiment output.
func (s Smart) String() string {
	return fmt.Sprintf("SmartVoting(ω=%d, early<%.0f%%, β=%d)", s.Omega, s.EarlyFrac*100, s.BetaFreq)
}
