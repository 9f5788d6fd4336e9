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
	ss, order := newRun(d, pf, opts, "crowdsky")
	ss.serial(order)
	return ss.finish()
}
