package core

import (
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
)

// TupleProbability is a tuple's estimated chance of belonging to the final
// skyline, given the answers collected so far.
type TupleProbability struct {
	Tuple       int
	Probability float64
	// Survived is how many dominating-set members the tuple is already
	// known to beat; Unresolved is how many are still undecided.
	Survived, Unresolved int
}

// ProbabilisticResult extends Result with per-tuple skyline probabilities,
// the readout of the fixed-budget setting of Lofi et al. [12]: instead of
// the optimistic yes/no of Result.Skyline, every tuple carries its chance
// of surviving the questions the budget did not cover.
type ProbabilisticResult struct {
	Result
	// Probabilities has one entry per alive tuple, ascending by tuple
	// index. Complete tuples carry probability exactly 0 or 1.
	Probabilities []TupleProbability
}

// CrowdSkyProbabilistic runs like Run, under the same schedule dispatch
// (typically with Options.MaxQuestions set), and estimates each tuple's
// skyline probability under a rank model: if a tuple is already known more
// preferred than m of its remaining dominating-set members and k members
// are unresolved, the chance that it is the most preferred of the whole
// group is (m+1)/(m+k+1) — the probability that a uniformly ranked item
// that is already the minimum of m+1 items stays minimal when k more items
// join.
// With several crowd attributes the per-attribute probabilities multiply
// (independence across attributes, matching the synthetic generator).
//
// Complete tuples get probability 1 (skyline) or 0 (dominated); with an
// unlimited budget every tuple is complete and the probabilities collapse
// to the exact skyline indicator.
func CrowdSkyProbabilistic(d *dataset.Dataset, pf crowd.Platform, opts Options) *ProbabilisticResult {
	ss, admit := newRun(d, pf, opts, "-probabilistic")
	ss.kept = make([]*tupleEval, d.N())
	ss.drive(admit)
	out := &ProbabilisticResult{Result: *ss.finish()}
	for t, te := range ss.kept {
		tp := TupleProbability{Tuple: t}
		switch {
		case !ss.alive[t]:
			continue
		case te == nil:
			tp.Probability = 1 // SKY_AK: complete skyline tuple
		case ss.status[t] == dominated:
			tp.Probability = 0
		default:
			tp.Survived, tp.Unresolved = te.tally(ss)
			tp.Probability = float64(tp.Survived+1) / float64(tp.Survived+tp.Unresolved+1)
		}
		out.Probabilities = append(out.Probabilities, tp)
	}
	return out
}

// tally counts, over the remaining dominating-set members, how many the
// tuple has survived and how many are unresolved.
func (te *tupleEval) tally(ss *session) (survived, unresolved int) {
	for _, s := range te.ds {
		if s < 0 {
			continue
		}
		switch {
		case ss.pairKnown(s, te.t):
			if !ss.acWeaklyPrefers(s, te.t) {
				survived++
			}
		default:
			unresolved++
		}
	}
	return survived, unresolved
}
