package core

import (
	"context"
	"sort"
	"strconv"

	"crowdsky/internal/bitset"
	"crowdsky/internal/telemetry"
)

// tupleEval is the per-tuple question pipeline shared by the serial
// algorithm and both parallelizations: optional P1/P2 reduction of the
// dominating set at construction, then the P3 probing questions, then the
// Q(t) questions generated from what remains of DS(t), with the C3 early
// break once t is determined to be a non-skyline tuple.
//
// The pipeline is driven by repeatedly calling next, which performs every
// zero-cost step (answers already inferable from the preference tree) and
// returns the next pair that actually needs crowd input. The caller asks
// the pair (alone for the serial algorithm, batched with other tuples'
// pairs for the parallel ones) and calls next again.
type tupleEval struct {
	t    int
	ds   []int      // current dominating set, shrinking as probing resolves dominance
	inDS bitset.Set // membership mask for ds, indexed by tuple

	probe   []pair // P3 probing questions, most important first
	probeAt int

	askAt  int  // next index into ds for the Q(t) phase
	killed bool // t determined to be a complete non-skyline tuple
	done   bool

	// pendingBackup is the number of further dominators pending against t
	// after the pair last returned by next (0 for probes); it feeds the
	// Backup field of voting.Context.
	pendingBackup int
}

// newTupleEval builds the pipeline for tuple t from its dominating set.
// When P1 is on, complete non-skyline tuples are dropped from the set
// (Corollary 1); when P2 is on, the set is reduced to SKY_AC(DS(t)) using
// the preference tree (Corollary 2); when P3 is on, the probing question
// list P(t) is generated and sorted by descending co-domination frequency
// (Section 3.4).
func newTupleEval(ss *session, t int, ds []int, opts Options, nonSkyline []bool) *tupleEval {
	// The whole construction is the question-generation phase of tuple t;
	// under tracing it becomes a "qgen" span with one sub-span per enabled
	// pruning method, so skytrace can attribute machine time to P1/P2/P3.
	var qctx context.Context
	var qspan *telemetry.Span
	if ss.trace != nil {
		qctx, qspan = telemetry.StartSpan(ss.runContext(), ss.trace, "qgen")
		qspan.SetAttr("tuple", strconv.Itoa(t))
	}
	phase := func(name string) *telemetry.Span {
		if qspan == nil {
			return nil
		}
		_, s := telemetry.StartSpan(qctx, ss.trace, name)
		return s
	}
	te := &tupleEval{t: t, inDS: bitset.New(ss.d.N())}
	var p1span *telemetry.Span
	if opts.P1 {
		p1span = phase("p1")
	}
	for _, s := range ds {
		if opts.P1 && nonSkyline[s] {
			continue
		}
		te.ds = append(te.ds, s)
		te.inDS.Add(s)
	}
	if p1span != nil {
		removed := len(ds) - len(te.ds)
		ss.p1Removed += removed
		p1span.SetAttr("removed", strconv.Itoa(removed))
		p1span.End()
	}
	if opts.P2 {
		p2span := phase("p2")
		before := len(te.ds)
		te.reduceToACSkyline(ss)
		if p2span != nil {
			removed := before - len(te.ds)
			ss.p2Removed += removed
			p2span.SetAttr("removed", strconv.Itoa(removed))
			p2span.End()
		}
	}
	if opts.P3 && len(te.ds) > 1 {
		p3span := phase("p3_order")
		for i := 0; i < len(te.ds); i++ {
			for j := i + 1; j < len(te.ds); j++ {
				te.probe = append(te.probe, makePair(te.ds[i], te.ds[j]))
			}
		}
		// Order by freq(u,v) per Options.ProbeOrder; ties keep pair order
		// for determinism.
		switch opts.ProbeOrder {
		case FreqAscending:
			sort.SliceStable(te.probe, func(x, y int) bool {
				return ss.freq(te.probe[x].a(), te.probe[x].b()) < ss.freq(te.probe[y].a(), te.probe[y].b())
			})
		case PairOrder:
			// generation order
		default: // FreqDescending
			sort.SliceStable(te.probe, func(x, y int) bool {
				return ss.freq(te.probe[x].a(), te.probe[x].b()) > ss.freq(te.probe[y].a(), te.probe[y].b())
			})
		}
		p3span.End()
	}
	qspan.SetAttr("ds", strconv.Itoa(len(te.ds)))
	qspan.End()
	return te
}

// reduceToACSkyline drops every member of ds that is AC-dominated by
// another member, according to the current preference tree.
func (te *tupleEval) reduceToACSkyline(ss *session) {
	keep := te.ds[:0]
	for _, u := range te.ds {
		dominated := false
		for _, v := range te.ds {
			if v != u && ss.acDominates(v, u) {
				dominated = true
				break
			}
		}
		if dominated {
			te.inDS.Remove(u)
		} else {
			keep = append(keep, u)
		}
	}
	te.ds = keep
}

// remove drops tuple u from the dominating set.
func (te *tupleEval) remove(u int) {
	if !te.inDS.Has(u) {
		return
	}
	te.inDS.Remove(u)
	keep := te.ds[:0]
	for _, s := range te.ds {
		if s != u {
			keep = append(keep, s)
		}
	}
	te.ds = keep
}

// remainingAfter counts the dominators still pending against t after the
// one at askAt.
func (te *tupleEval) remainingAfter() int {
	count := 0
	for i := te.askAt + 1; i < len(te.ds); i++ {
		if te.inDS.Has(te.ds[i]) {
			count++
		}
	}
	return count
}

// next advances the pipeline past every step answerable from the
// preference tree and returns the next pair requiring crowd input. ok is
// false when the tuple is complete; the outcome is then in te.killed.
func (te *tupleEval) next(ss *session) (p pair, ok bool) {
	if te.done {
		return 0, false
	}
	// Probing phase (P3).
	for te.probeAt < len(te.probe) {
		pr := te.probe[te.probeAt]
		// Skip pairs whose members were already pruned away.
		if !te.inDS.Has(pr.a()) || !te.inDS.Has(pr.b()) {
			te.probeAt++
			continue
		}
		if !ss.pairKnown(pr.a(), pr.b()) {
			// Under round-robin, a partially answered probe whose members
			// are already known incomparable needs no further attributes.
			if !(ss.roundRobin && ss.pairIncomparable(pr.a(), pr.b())) {
				te.pendingBackup = 0
				return pr, true
			}
		}
		// Resolved: apply its pruning effect for free.
		switch {
		case ss.acDominates(pr.a(), pr.b()):
			te.remove(pr.b())
			if ss.trace != nil {
				ss.p3Removed++
			}
		case ss.acDominates(pr.b(), pr.a()):
			te.remove(pr.a())
			if ss.trace != nil {
				ss.p3Removed++
			}
		}
		te.probeAt++
	}
	// Q(t) phase: compare t against each remaining dominator. The paper's
	// early break (Algorithm 1 lines 21-24) falls out naturally: the first
	// dominator with s ⪯AC t completes t as a non-skyline tuple.
	for te.askAt < len(te.ds) {
		s := te.ds[te.askAt]
		if !te.inDS.Has(s) {
			te.askAt++
			continue
		}
		if ss.acWeaklyPrefers(s, te.t) {
			// s ≺AK t and s ⪯AC t, hence s ≺A t: complete non-skyline.
			te.killed = true
			te.done = true
			return 0, false
		}
		if ss.roundRobin && ss.cannotWeaklyPrefer(s, te.t) {
			// Round-robin: t already won an attribute against s, so s can
			// never dominate t; skip s's remaining attributes.
			te.askAt++
			continue
		}
		if !ss.pairKnown(s, te.t) {
			te.pendingBackup = te.remainingAfter()
			return makePair(s, te.t), true
		}
		// Fully known and s does not weakly prefer t: s cannot dominate t.
		te.askAt++
	}
	te.done = true
	return 0, false
}
