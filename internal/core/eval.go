package core

import (
	"context"
	"slices"
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
// returns the next pair that actually needs crowd input. session.drive
// asks the pair, batched with the other active pipelines' pairs, and
// calls next again.
type tupleEval struct {
	t int
	// ds is the dominating set as P1/P2 left it. A member that probing
	// proves dominated is overwritten with -1, so positions never move:
	// probe holds pairs of positions into ds, and askAt is one.
	ds []int

	probe   []pair // P3 probing questions as positions into ds, most important first
	probeAt int

	askAt  int  // next index into ds for the Q(t) phase
	killed bool // t determined to be a complete non-skyline tuple
	done   bool

	// pendingBackup is the number of further dominators pending against t
	// after the pair last returned by next (0 for probes); it feeds the
	// Backup field of voting.Context.
	pendingBackup int
}

// newTupleEval builds the pipeline for tuple t from its dominating set:
// sets[t] when sets is non-nil (ByDominatingSets hands over the sets it
// reduced at batching), else DS(t) read from the index. When P1 is on,
// complete non-skyline tuples are dropped from the set (Corollary 1);
// when P2 is on, the set is reduced to SKY_AC(DS(t)) using the preference
// tree (Corollary 2); when P3 is on, the probing question list P(t) is
// generated and sorted by descending co-domination frequency (Section
// 3.4).
//
// It only reads the session, so the pipelines of one admission can be
// built on several goroutines, each with its own qgen.
func (q *qgen) newTupleEval(t int, sets [][]int) *tupleEval {
	ss := q.ss
	// The whole construction is the question-generation phase of tuple t;
	// under tracing it becomes a "qgen" span with one sub-span per enabled
	// pruning method, so skytrace can attribute machine time to P1/P2/P3.
	var qctx context.Context
	var qspan *telemetry.Span
	if ss.trace != nil {
		qctx, qspan = telemetry.StartSpan(ss.runContext(), ss.trace, "qgen")
		qspan.SetAttr("tuple", strconv.Itoa(t))
	}
	te := &tupleEval{t: t, ds: q.pruneDS(t, sets, qctx)}
	if ss.opts.P3 && len(te.ds) > 1 {
		p3span := ss.stageSpan(qctx, "p3_order")
		te.probe = q.probeOrder(te.ds, ss.opts.ProbeOrder)
		p3span.End()
	}
	qspan.SetAttr("ds", strconv.Itoa(len(te.ds)))
	qspan.End()
	return te
}

// stageSpan opens a pruning-stage span under a tuple's qgen span; nil
// when qctx is nil (tracing off, or no enclosing qgen span).
func (ss *session) stageSpan(qctx context.Context, name string) *telemetry.Span {
	if qctx == nil {
		return nil
	}
	_, s := telemetry.StartSpan(qctx, ss.trace, name)
	return s
}

// pruneDS applies the dominating-set reductions of Algorithm 1, line 9,
// to t's dominating set — sets[t], or DS(t) from the index when sets is
// nil — and returns the survivors in ascending tuple order as a new
// exact-size slice: P1 drops complete non-skyline members (Corollary 1),
// then P2 keeps SKY_AC of the rest under the current preference tree
// (Corollary 2). Each stage's removals are added to q's totals and, with
// a qgen context, recorded on a "p1"/"p2" span under it.
//
// On the index path P1 is one AND-NOT of t's bitmap row with the
// dominated mask, and the members come in position order. SKY_AC is the
// set of maximal members, so P2 keeps the same members in any input
// order, and only its survivors are sorted back into tuple order (sets
// are already in tuple order, so there the sort finds nothing to do).
func (q *qgen) pruneDS(t int, sets [][]int, qctx context.Context) []int {
	ss := q.ss
	buf := q.pruneBuf[:0]
	var skip bitset.Set // P1's mask: the dominated positions
	var span *telemetry.Span
	if ss.opts.P1 {
		skip, span = ss.dominatedPos, ss.stageSpan(qctx, "p1")
	}
	var size int
	if sets == nil {
		size = ss.ix.DominatorCount(t)
		buf = ss.ix.AppendDominators(buf, t, skip)
	} else {
		size = len(sets[t])
		for _, s := range sets[t] {
			if skip == nil || ss.status[s] != dominated {
				buf = append(buf, s)
			}
		}
	}
	if ss.opts.P1 {
		ss.countRemoved(&q.p1Removed, span, size-len(buf))
	}
	if ss.opts.P2 {
		span := ss.stageSpan(qctx, "p2")
		before := len(buf)
		buf = q.acSkyline(buf)
		ss.countRemoved(&q.p2Removed, span, before-len(buf))
	}
	slices.Sort(buf)
	q.pruneBuf = buf
	return append([]int(nil), buf...)
}

// countRemoved adds removed to a pruning stage's run total and, when the
// stage has a span, records it there and closes the span. The totals
// count only under tracing.
func (ss *session) countRemoved(total *int, span *telemetry.Span, removed int) {
	if ss.trace == nil {
		return
	}
	*total += removed
	if span != nil {
		span.SetAttr("removed", strconv.Itoa(removed))
		span.End()
	}
}

// acSkyline reduces set in place to SKY_AC(set), the members no other
// member is known to AC-dominate, and returns it in set order. Known
// AC-dominance is a strict partial order (each preference tree is
// transitively closed and acyclic), so SKY_AC is the set of maximal
// members and one block-nested-loop pass finds it: a member dominated by
// a window member is dropped; otherwise it evicts the window members it
// dominates and joins the window. The window is a prefix of set itself
// and keeps set order.
//
// Each member's class on every crowd attribute is resolved once, when it
// is visited, and kept beside the window in q's scratch (m entries
// per member, for m crowd attributes). A member is tested against the
// window first, which reads only the window members' rows; its own rows
// are read only once it survives. Splitting the two directions this way
// is exact: a member that one window member dominates dominates no other
// window member, or by transitivity the window would hold a dominated
// member.
func (q *qgen) acSkyline(set []int) []int {
	graphs := q.ss.graphs
	m := len(graphs)
	cls := q.winClasses[:0]
	win := set[:0]
next:
	for _, u := range set {
		// u's classes take the slot after the window's.
		at := len(win) * m
		cls = cls[:at]
		for _, g := range graphs {
			rep, row := g.Class(u)
			cls = append(cls, acClass{rep, row})
		}
		uc := cls[at:]
		for wc := cls[:at]; len(wc) > 0; wc = wc[m:] {
			if acDominates(wc[:m], uc) {
				continue next
			}
		}
		k := 0
		for i, w := range win {
			wc := cls[i*m : i*m+m]
			if acDominates(uc, wc) {
				continue // u evicts w
			}
			if k != i {
				copy(cls[k*m:], wc)
				win[k] = w
			}
			k++
		}
		if k != len(win) {
			copy(cls[k*m:], uc)
		}
		win = append(win[:k], u)
	}
	q.winClasses = cls
	return win
}

// acClass is a member's class on one crowd attribute, as
// prefgraph.Graph.Class resolves it.
type acClass struct {
	rep int
	row bitset.Set
}

// acDominates reports that the member with classes a, one per crowd
// attribute, is known to AC-dominate the member with classes b: on every
// attribute the two share a class or a's row holds b's class, and on at
// least one a's row holds it.
func acDominates(a, b []acClass) bool {
	b = b[:len(a)]
	strict := false
	for j := range a {
		if a[j].rep == b[j].rep {
			continue
		}
		if !a[j].row.Has(b[j].rep) {
			return false
		}
		strict = true
	}
	return strict
}

// probeOrder returns the probing list P(t) over ds as pairs of positions
// into ds: every pair in generation order (i < j, by i then j), stably
// sorted by freq(ds[i], ds[j]) per order. Ties keep generation order for
// determinism. Each pair gets one integer key, the frequency in the high
// half (complemented for FreqDescending, absent for PairOrder) and the
// pair's generation index in the low half, so one unstable sort of the
// keys gives the stable order. The pairs and keys live in q's scratch;
// the returned list is the only allocation.
func (q *qgen) probeOrder(ds []int, order ProbeOrder) []pair {
	ss := q.ss
	gen, keys := q.probeGen[:0], q.probeKeys[:0]
	for i := 0; i < len(ds); i++ {
		for j := i + 1; j < len(ds); j++ {
			key := uint64(len(gen))
			switch order {
			case PairOrder:
				// generation order
			case FreqAscending:
				key |= uint64(uint32(ss.freq(ds[i], ds[j]))) << 32
			default: // FreqDescending
				key |= uint64(^uint32(ss.freq(ds[i], ds[j]))) << 32
			}
			gen = append(gen, makePair(i, j))
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	probe := make([]pair, len(keys))
	for i, key := range keys {
		probe[i] = gen[uint32(key)]
	}
	q.probeGen, q.probeKeys = gen, keys
	return probe
}

// remainingAfter counts the dominators still pending against t after the
// one at askAt.
func (te *tupleEval) remainingAfter() int {
	count := 0
	for _, s := range te.ds[te.askAt+1:] {
		if s >= 0 {
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
		i, j := pr.a(), pr.b()
		u, v := te.ds[i], te.ds[j]
		// Skip pairs whose members were already pruned away.
		if u < 0 || v < 0 {
			te.probeAt++
			continue
		}
		if !ss.pairKnown(u, v) {
			// Under round-robin, a partially answered probe whose members
			// are already known incomparable needs no further attributes.
			if !(ss.opts.RoundRobinAC && ss.pairIncomparable(u, v)) {
				te.pendingBackup = 0
				return makePair(u, v), true
			}
		}
		// Resolved: apply its pruning effect for free.
		switch ss.acCompare(u, v) {
		case 1:
			te.ds[j] = -1
			if ss.trace != nil {
				ss.p3Removed++
			}
		case -1:
			te.ds[i] = -1
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
		if s < 0 {
			te.askAt++
			continue
		}
		if ss.acWeaklyPrefers(s, te.t) {
			// s ≺AK t and s ⪯AC t, hence s ≺A t: complete non-skyline.
			te.killed = true
			te.done = true
			return 0, false
		}
		if ss.opts.RoundRobinAC && ss.cannotWeaklyPrefer(s, te.t) {
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
