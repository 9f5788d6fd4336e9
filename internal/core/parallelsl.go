package core

import "fmt"

// bySkylineLayers is the admission rule of Algorithm 2, the skyline-layer
// parallelization of Section 4.2. The dominance relationships of AK are
// organized as skyline layers with direct (immediate-dominator) edges
// c(t); a tuple's question pipeline starts once every member of DS(t) is
// decided, equivalently once every member of c(t) is. All active
// pipelines contribute one question per round.
//
// The two conditions agree by a chain argument. c(t) ⊆ DS(t), so one way
// is immediate. Conversely, every s ∈ DS(t)∖c(t) dominates t through a
// maximal chain s ≺ … ≺ c ≺ t with c ∈ c(t), so s ∈ DS(c); c was admitted
// only after its own dominating set was decided, and a readout never goes
// back to undecided. The rule therefore needs no immediate dominators,
// nor DS(t) as a list: it keeps one word cursor per waiting tuple into
// t's row of the dominance bitmap, moved to the first word that still
// meets the session's undecided mask, and t starts when no word does.
// The mask only shrinks, so cursors only move forward, and all checks of
// a run cost O(Σ|row words|) in total.
//
// Unlike ByDominatingSets, concurrently active tuples may probe
// overlapping dominating sets (dependency C2 is deliberately violated,
// Section 4.2), which can ask a few extra questions in exchange for far
// fewer rounds; the paper measures the overhead at roughly 10%.
func (ss *session) bySkylineLayers(waiting []int) admitRule {
	cursor := make([]int32, ss.d.N()) // by tuple: the words of t's row before it are decided
	var start []int                   // the tuples one call starts, in waiting order
	return func(active []*tupleEval) []*tupleEval {
		keep := waiting[:0]
		start = start[:0]
		for _, t := range waiting {
			if w := ss.ix.PendingWord(t, int(cursor[t]), ss.undecidedPos); w >= 0 {
				cursor[t] = int32(w)
				keep = append(keep, t)
				continue
			}
			start = append(start, t)
		}
		waiting = keep
		active = ss.startPipelines(active, start, nil)
		if len(active) == 0 && len(waiting) > 0 {
			// Cannot happen: with nothing active every started tuple is
			// decided, and dominance is acyclic, so a waiting tuple that no
			// other waiting tuple dominates has a decided dominating set.
			panic(fmt.Sprintf("core: BySkylineLayers stalled with %d incomplete tuples", len(waiting)))
		}
		return active
	}
}
