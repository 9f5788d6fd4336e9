package voting

import "fmt"

// Annealed implements the paper's tuned dynamic voting (Section 6.1):
// "the initial 30% questions are assigned ω+2, and the last 30% questions
// are assigned ω−2", by position in the run, because early answers are
// reused by transitivity across many later pruning decisions (and, with
// first-write-wins contradiction handling, an early mistake can block later
// correct answers), while late answers affect a single tuple. Questions in
// the first HiFrac of the run get Omega+2 workers, questions in the last
// LoFrac get Omega−2, and the middle, or a question without a progress
// estimate, gets Omega. With HiFrac == LoFrac the expected total worker
// budget matches Static{Omega} when question volume is uniform over the
// run.
type Annealed struct {
	Omega  int
	HiFrac float64 // fraction of the run boosted to Omega+2 (paper: 0.3)
	LoFrac float64 // fraction of the run reduced to Omega−2 (paper: 0.3)
}

// NewAnnealed returns the paper's 30%/30% tuning around omega.
func NewAnnealed(omega int) Annealed {
	return Annealed{Omega: omega, HiFrac: 0.3, LoFrac: 0.3}
}

// Workers implements Policy from ctx.Progress.
func (a Annealed) Workers(ctx Context) int {
	switch {
	case !ctx.HasProgress:
		return a.Omega
	case ctx.Progress < a.HiFrac:
		return a.Omega + 2
	case ctx.Progress >= 1-a.LoFrac:
		return max(1, a.Omega-2)
	default:
		return a.Omega
	}
}

// String names the policy for experiment output.
func (a Annealed) String() string {
	return fmt.Sprintf("DynamicVoting(ω=%d, first %.0f%% ω+2, last %.0f%% ω-2)",
		a.Omega, a.HiFrac*100, a.LoFrac*100)
}
