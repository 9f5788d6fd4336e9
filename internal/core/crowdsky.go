package core

import (
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
)

// CrowdSky runs Algorithm 1: the serial crowd-enabled skyline computation
// that minimizes monetary cost. Tuples outside SKY_AK(R) are evaluated one
// by one — in ascending order of dominating-set size when P1 is enabled —
// and for each, the probing questions (P3) and the dominating-set
// questions Q(t) are asked one pair per round until the tuple is complete
// (Definition 4).
//
// With a perfect platform the returned skyline equals the ground-truth
// skyline over A (Theorem 1); with a noisy platform accuracy depends on
// the voting policy in opts.
func CrowdSky(d *dataset.Dataset, pf crowd.Platform, opts Options) *Result {
	ss := newSession(d, pf, opts)
	defer ss.release()
	ss.startRun("crowdsky")
	ss.preprocessDegenerate()
	sets := ss.prepMachine()

	n := d.N()
	inSkyline := make([]bool, n)
	nonSkyline := make([]bool, n)
	var order []int
	for t := 0; t < n; t++ {
		if !ss.alive[t] {
			continue
		}
		if len(sets[t]) == 0 {
			// SKY_AK tuples are complete skyline tuples from the start
			// (Example 2): nothing can dominate them in A.
			inSkyline[t] = true
			continue
		}
		order = append(order, t)
	}
	if opts.P1 {
		// Lemma 3: ascending |DS(t)| guarantees every member of DS(t) is
		// complete before t is evaluated.
		sortByDSSize(order, sets)
	}

	for _, t := range order {
		te := newTupleEval(ss, t, sets[t], opts, nonSkyline)
		for {
			p, ok := te.next(ss)
			if !ok || !ss.budgetLeft() {
				break
			}
			ss.askPairNow(p.a(), p.b())
		}
		if te.killed {
			nonSkyline[t] = true
		} else {
			// Complete skyline tuple — or, with an exhausted budget, the
			// optimistic readout: not yet proven dominated.
			inSkyline[t] = true
		}
	}
	return ss.finish(inSkyline)
}
