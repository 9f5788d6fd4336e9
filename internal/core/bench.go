package core

import (
	"slices"

	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
)

// roundBench drives the session's per-round serving step in a steady
// state, as one reusable harness shared by the zero-alloc gate
// (TestZeroAllocSteadyStateRound) and BenchmarkRound — so the two measure
// the identical code path. One Round is the inner loop of every
// crowd-enabled algorithm: fold a batch of answers into the preference
// graphs (and the direct-answer record, without P2/P3), re-check pair
// completeness, and regenerate the outstanding requests into a reused
// buffer.
//
// The harness asks a perfect crowd once, up front, for a fixed batch of
// dominating-set pairs; Round then replays those answers. After the
// warm-up round every insertion takes the already-known fast path, every
// direct-answer write hits an existing slot, and the request buffer has reached
// its high-water mark: a steady-state Round performs zero allocations.
type roundBench struct {
	ss      *session
	pairs   []pair
	answers []crowd.Answer
	reqs    []crowd.Request
}

// newRoundBench builds the session (index included) over d, selects up
// to maxPairs dominating-set pairs, obtains their ground-truth answers
// from a perfect platform, and runs the warm-up round. A non-positive
// maxPairs defaults to 64.
func newRoundBench(d *dataset.Dataset, opts Options, maxPairs int) *roundBench {
	if maxPairs <= 0 {
		maxPairs = 64
	}
	pf := crowd.NewPerfect(crowd.DatasetTruth{Data: d})
	ss := newSession(d, pf, opts)
	ss.prepMachine()
	rb := &roundBench{ss: ss}
	var ds []int
	for t := 0; t < d.N(); t++ {
		ds = ss.ix.AppendDominators(ds[:0], t, nil)
		slices.Sort(ds)
		for _, s := range ds {
			rb.pairs = append(rb.pairs, makePair(s, t))
			if len(rb.pairs) == maxPairs {
				break
			}
		}
		if len(rb.pairs) == maxPairs {
			break
		}
	}
	var reqs []crowd.Request
	for _, p := range rb.pairs {
		for j := 0; j < d.CrowdDims(); j++ {
			reqs = append(reqs, crowd.Request{Q: crowd.Question{A: p.a(), B: p.b(), Attr: j}, Workers: 1})
		}
	}
	rb.answers = pf.Ask(reqs)
	rb.Round() // warm up: map inserts, graph propagation, buffer growth
	return rb
}

// Round executes one serving round over the fixed batch and returns the
// number of pairs still unknown afterwards (zero once warm — the batch's
// answers have all been folded in). Allocation-free in the steady state.
func (rb *roundBench) Round() int {
	ss := rb.ss
	ss.apply(rb.answers)
	rb.reqs = rb.reqs[:0]
	unknown := 0
	for _, p := range rb.pairs {
		if !ss.pairKnown(p.a(), p.b()) {
			unknown++
			rb.reqs = ss.unknownAttrs(p.a(), p.b(), 0, rb.reqs)
		}
	}
	return unknown
}
