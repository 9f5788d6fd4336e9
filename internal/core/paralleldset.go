package core

import (
	"sort"

	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
)

// ParallelDSet runs the dominating-set partitioning parallelization of
// Section 4.1. Tuples are grouped by the size of their (initial)
// dominating sets — same-size tuples cannot dominate each other (Lemma 3),
// removing dependency C1 — and each group is split into batches of tuples
// with pair-wise disjoint dominating sets, removing dependency C2. Groups
// and batches run sequentially; within a batch, every tuple contributes its
// next question to a shared round, so the batch's latency is the longest
// single-tuple pipeline rather than the sum (Example 7).
//
// The questions asked are exactly those of the serial CrowdSky run with the
// same pruning options; only their arrangement into rounds differs.
func ParallelDSet(d *dataset.Dataset, pf crowd.Platform, opts Options) *Result {
	ss := newSession(d, pf, opts)
	defer ss.release()
	ss.startRun("parallel-dset")
	ss.preprocessDegenerate()
	sets := ss.prepMachine()

	n := d.N()
	inSkyline := make([]bool, n)
	nonSkyline := make([]bool, n)
	pruned := make([][]int, n) // per tuple, its set as pruned at batching
	var order []int
	for t := 0; t < n; t++ {
		if !ss.alive[t] {
			continue
		}
		if len(sets[t]) == 0 {
			inSkyline[t] = true
			continue
		}
		order = append(order, t)
	}
	// Group by initial dominating-set size, ascending (the partitioning of
	// Section 4.1; sizes are taken before pruning so Lemma 3 applies).
	sort.SliceStable(order, func(x, y int) bool {
		return len(sets[order[x]]) < len(sets[order[y]])
	})

	for lo := 0; lo < len(order); {
		hi := lo
		size := len(sets[order[lo]])
		for hi < len(order) && len(sets[order[hi]]) == size {
			hi++
		}
		group := order[lo:hi]
		lo = hi

		for _, batch := range disjointBatches(ss, group, sets, pruned, nonSkyline, opts, n) {
			evals := make([]*tupleEval, len(batch))
			for i, t := range batch {
				// The batch-time set is exact input: Lemma 3 puts every
				// member of DS(t) in an earlier group, so P1's view is
				// unchanged, and the tree only gained relations since, so
				// SKY_AC now of SKY_AC then is SKY_AC now of the whole set.
				evals[i] = newTupleEval(ss, t, pruned[t], opts, nonSkyline)
				pruned[t] = nil
			}
			runLockstep(ss, evals)
			for _, te := range evals {
				if te.killed {
					nonSkyline[te.t] = true
				} else {
					inSkyline[te.t] = true
				}
			}
		}
	}
	return ss.finish(inSkyline)
}

// disjointBatches greedily partitions a same-size group into batches whose
// members have pair-wise disjoint dominating sets. The disjointness check
// uses the sets as CrowdSky would see them at question-generation time —
// after the P1 removal of complete non-skyline members and the P2
// reduction to SKY_AC (Algorithm 1, line 9) — because dependency C2 only
// concerns the members that can still appear in probing and Q(t)
// questions. Checking the reduced sets admits much larger batches on
// dense dominance structures without reintroducing C2. Each member's
// reduced set is left in pruned[t] for its pipeline to start from.
func disjointBatches(ss *session, group []int, sets, pruned [][]int, nonSkyline []bool, opts Options, n int) [][]int {
	type batch struct {
		members []int
		used    []bool
	}
	var batches []*batch
	for _, t := range group {
		ds := ss.pruneDS(sets[t], opts, nonSkyline, nil)
		pruned[t] = ds
		placed := false
		for _, b := range batches {
			overlap := false
			for _, s := range ds {
				if b.used[s] {
					overlap = true
					break
				}
			}
			if !overlap {
				b.members = append(b.members, t)
				for _, s := range ds {
					b.used[s] = true
				}
				placed = true
				break
			}
		}
		if !placed {
			b := &batch{used: make([]bool, n)}
			b.members = append(b.members, t)
			for _, s := range ds {
				b.used[s] = true
			}
			batches = append(batches, b)
		}
	}
	out := make([][]int, len(batches))
	for i, b := range batches {
		out[i] = b.members
	}
	return out
}

// runLockstep drives a set of tuple pipelines round by round: each round,
// every still-active tuple contributes its next crowd-needing pair; pairs
// requested by several tuples are asked once. The loop ends when every
// pipeline is complete.
func runLockstep(ss *session, evals []*tupleEval) {
	active := append([]*tupleEval(nil), evals...)
	for len(active) > 0 && ss.budgetLeft() {
		var reqs []crowd.Request
		seen := make(map[pair]bool, len(active))
		next := active[:0]
		for _, te := range active {
			p, ok := te.next(ss)
			if !ok {
				continue
			}
			next = append(next, te)
			if !seen[p] {
				seen[p] = true
				reqs = ss.unknownAttrs(p.a(), p.b(), te.pendingBackup, reqs)
			}
		}
		active = next
		ss.askRound(reqs)
	}
}
