package core

import (
	"fmt"

	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
)

// ParallelSL runs Algorithm 2: the skyline-layer parallelization of
// Section 4.2. The dominance relationships of AK are organized as skyline
// layers with direct (immediate-dominator) edges c(t); a tuple's question
// pipeline starts as soon as every tuple in c(t) is complete, which implies
// every tuple in DS(t) is complete. All active pipelines contribute one
// question per round.
//
// Unlike ParallelDSet, concurrently active tuples may probe overlapping
// dominating sets (dependency C2 is deliberately violated, Section 4.2),
// which can ask a few extra questions in exchange for far fewer rounds;
// the paper measures the overhead at roughly 10%.
func ParallelSL(d *dataset.Dataset, pf crowd.Platform, opts Options) *Result {
	ss := newSession(d, pf, opts)
	defer ss.release()
	ss.startRun("parallel-sl")
	ss.preprocessDegenerate()
	sets := ss.prepMachine()
	imm := ss.ix.ImmediateDominators()

	n := d.N()
	inSkyline := make([]bool, n)
	nonSkyline := make([]bool, n)
	complete := make([]bool, n)
	var waiting []int
	for t := 0; t < n; t++ {
		if !ss.alive[t] {
			continue
		}
		if len(sets[t]) == 0 {
			// SL1 = SKY_AK(R): complete skyline tuples from the start
			// (Algorithm 2, line 4).
			inSkyline[t] = true
			complete[t] = true
			continue
		}
		waiting = append(waiting, t)
	}

	var active []*tupleEval
	remaining := len(waiting)
	for remaining > 0 {
		// Settle: activate every tuple whose direct dominators are all
		// complete, and retire every pipeline that can finish without
		// further crowd input. Activation and zero-cost completion can
		// cascade, so repeat until stable.
		for {
			progress := false
			keepWaiting := waiting[:0]
			for _, t := range waiting {
				if allComplete(imm[t], complete) {
					active = append(active, newTupleEval(ss, t, sets[t], opts, nonSkyline))
					progress = true
				} else {
					keepWaiting = append(keepWaiting, t)
				}
			}
			waiting = keepWaiting
			keepActive := active[:0]
			for _, te := range active {
				if _, ok := te.next(ss); !ok {
					if te.killed {
						nonSkyline[te.t] = true
					} else {
						inSkyline[te.t] = true
					}
					complete[te.t] = true
					remaining--
					progress = true
				} else {
					keepActive = append(keepActive, te)
				}
			}
			active = keepActive
			if !progress {
				break
			}
		}
		if !ss.budgetLeft() {
			// Budget exhausted: optimistic readout for everything still
			// open (active pipelines not killed, and tuples still waiting).
			for _, te := range active {
				if te.killed {
					nonSkyline[te.t] = true
				} else {
					inSkyline[te.t] = true
				}
			}
			for _, t := range waiting {
				inSkyline[t] = true
			}
			break
		}
		if len(active) == 0 {
			if remaining > 0 {
				// Cannot happen: the dominance DAG is acyclic, so some
				// waiting tuple always has all direct dominators complete.
				panic(fmt.Sprintf("core: ParallelSL stalled with %d incomplete tuples", remaining))
			}
			break
		}
		// One round: every active pipeline contributes its pending pair;
		// duplicates across pipelines are asked once.
		var reqs []crowd.Request
		seen := make(map[pair]bool, len(active))
		for _, te := range active {
			p, ok := te.next(ss)
			if !ok {
				continue // completes in the next settle pass
			}
			if !seen[p] {
				seen[p] = true
				reqs = ss.unknownAttrs(p.a(), p.b(), te.pendingBackup, reqs)
			}
		}
		ss.askRound(reqs)
	}
	return ss.finish(inSkyline)
}

func allComplete(ids []int, complete []bool) bool {
	for _, s := range ids {
		if !complete[s] {
			return false
		}
	}
	return true
}
