package voting

import "fmt"

// ProgressPolicy is an extended worker-assignment policy that also sees how
// far the query has progressed (the fraction of the expected question
// budget already spent, in [0,1]). Section 6.1 tunes DynamicVoting
// positionally — "the initial 30% questions are assigned ω+2, and the last
// 30% questions are assigned ω−2" — because early answers are reused by
// transitivity across many later pruning decisions (and, with
// first-write-wins contradiction handling, an early mistake can block later
// correct answers), while late answers affect a single tuple.
//
// Policies that do not implement ProgressPolicy are consulted through
// Workers alone.
type ProgressPolicy interface {
	Policy
	// WorkersAt returns the worker count for a question asked at the given
	// progress fraction with the given importance freq(u,v).
	WorkersAt(progress float64, freq int) int
}

// Annealed implements the paper's tuned dynamic voting: questions in the
// first HiFrac of the run get Omega+2 workers, questions in the last LoFrac
// get Omega−2, and the middle gets Omega. With HiFrac == LoFrac the
// expected total worker budget matches Static{Omega} when question volume
// is uniform over the run.
type Annealed struct {
	Omega  int
	HiFrac float64 // fraction of the run boosted to Omega+2 (paper: 0.3)
	LoFrac float64 // fraction of the run reduced to Omega−2 (paper: 0.3)
}

// NewAnnealed returns the paper's 30%/30% tuning around omega.
func NewAnnealed(omega int) Annealed {
	return Annealed{Omega: omega, HiFrac: 0.3, LoFrac: 0.3}
}

// WorkersAt implements ProgressPolicy.
func (a Annealed) WorkersAt(progress float64, _ int) int {
	switch {
	case progress < a.HiFrac:
		return a.Omega + 2
	case progress >= 1-a.LoFrac:
		return maxInt(1, a.Omega-2)
	default:
		return a.Omega
	}
}

// Workers implements Policy for callers without progress information; it
// returns the middle assignment.
func (a Annealed) Workers(int) int { return a.Omega }

// String names the policy for experiment output.
func (a Annealed) String() string {
	return fmt.Sprintf("DynamicVoting(ω=%d, first %.0f%% ω+2, last %.0f%% ω-2)",
		a.Omega, a.HiFrac*100, a.LoFrac*100)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
