package core

import "fmt"

// bySkylineLayers is the admission rule of Algorithm 2, the skyline-layer
// parallelization of Section 4.2. The dominance relationships of AK are
// organized as skyline layers with direct (immediate-dominator) edges
// c(t); a tuple's question pipeline starts as soon as every tuple in c(t)
// is complete, which implies every tuple in DS(t) is complete. All active
// pipelines contribute one question per round.
//
// Unlike ByDominatingSets, concurrently active tuples may probe
// overlapping dominating sets (dependency C2 is deliberately violated,
// Section 4.2), which can ask a few extra questions in exchange for far
// fewer rounds; the paper measures the overhead at roughly 10%.
func (ss *session) bySkylineLayers(waiting []int) admitRule {
	imm := ss.ix.ImmediateDominators()
	return func(active []*tupleEval) []*tupleEval {
		keep := waiting[:0]
	next:
		for _, t := range waiting {
			for _, s := range imm[t] {
				if ss.status[s] == undecided {
					keep = append(keep, t)
					continue next
				}
			}
			active = append(active, newTupleEval(ss, t, ss.sets[t]))
		}
		waiting = keep
		if len(active) == 0 && len(waiting) > 0 {
			// Cannot happen: the dominance DAG is acyclic, so some waiting
			// tuple always has all direct dominators complete.
			panic(fmt.Sprintf("core: BySkylineLayers stalled with %d incomplete tuples", len(waiting)))
		}
		return active
	}
}
