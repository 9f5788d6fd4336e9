package core

import (
	"context"
	"slices"
	"strconv"

	"crowdsky/internal/bitset"
	"crowdsky/internal/telemetry"
)

// byDominatingSets is the admission rule of the dominating-set
// partitioning of Section 4.1. Tuples are grouped by the size of their
// (initial) dominating sets — same-size tuples cannot dominate each other
// (Lemma 3), removing dependency C1 — and each group is split into batches
// of tuples with pair-wise disjoint dominating sets, removing dependency
// C2. Groups and batches start one after another once nothing is active;
// within a batch, every tuple contributes its next question to a shared
// round, so the batch's latency is the longest single-tuple pipeline
// rather than the sum (Example 7).
//
// The questions asked are exactly those of the Serial schedule with the
// same pruning options; only their arrangement into rounds differs.
func (ss *session) byDominatingSets(order []int) admitRule {
	// Group by initial dominating-set size, ascending (the partitioning of
	// Section 4.1; sizes are taken before pruning so Lemma 3 applies).
	ss.sortByDSSize(order)
	var batches [][]int
	pruned := make([][]int, ss.d.N()) // per tuple, its set as pruned at batching
	return func(active []*tupleEval) []*tupleEval {
		if len(active) > 0 {
			return active
		}
		if len(batches) == 0 {
			if len(order) == 0 {
				return active
			}
			hi := 1
			for hi < len(order) && ss.ix.DominatorCount(order[hi]) == ss.ix.DominatorCount(order[0]) {
				hi++
			}
			batches = ss.disjointBatches(order[:hi], pruned)
			order = order[hi:]
		}
		// The batch-time set is exact input: Lemma 3 puts every member of
		// DS(t) in an earlier group, so P1's view is unchanged, and the
		// tree only gained relations since, so SKY_AC now of SKY_AC then is
		// SKY_AC now of the whole set.
		active = ss.startPipelines(active, batches[0], pruned)
		for _, t := range batches[0] {
			pruned[t] = nil
		}
		batches = batches[1:]
		return active
	}
}

// disjointBatches greedily partitions a same-size group into batches whose
// members have pair-wise disjoint dominating sets, placing each tuple in
// the first batch whose members' sets it misses. The disjointness check
// uses the sets as the Serial schedule would see them at question
// generation — after the P1 removal of complete non-skyline members and the P2
// reduction to SKY_AC (Algorithm 1, line 9) — because dependency C2 only
// concerns the members that can still appear in probing and Q(t)
// questions. Checking the reduced sets admits much larger batches on
// dense dominance structures without reintroducing C2. Each member's
// reduced set is left in pruned[t] for its pipeline to start from.
//
// Under tracing the group's reductions run under one "batch_group" span,
// so their p1/p2 spans add up to the run totals like the pipelines' do.
func (ss *session) disjointBatches(group []int, pruned [][]int) [][]int {
	var gctx context.Context
	var span *telemetry.Span
	if ss.trace != nil {
		gctx, span = telemetry.StartSpan(ss.runContext(), ss.trace, "batch_group")
		span.SetAttr("tuples", strconv.Itoa(len(group)))
	}
	var batches [][]int
	var used []bitset.Set // per batch, the union of its members' sets
	for _, t := range group {
		ds := ss.gen.pruneDS(t, nil, gctx)
		pruned[t] = ds
		b := 0
		for b < len(used) && slices.ContainsFunc(ds, used[b].Has) {
			b++
		}
		if b == len(used) {
			batches = append(batches, nil)
			used = append(used, bitset.New(ss.d.N()))
		}
		batches[b] = append(batches[b], t)
		for _, s := range ds {
			used[b].Add(s)
		}
	}
	span.End()
	return batches
}
