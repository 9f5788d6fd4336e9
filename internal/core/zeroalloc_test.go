package core

import (
	"math/rand"
	"runtime"
	"testing"

	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
)

// raceEnabled is set by race_test.go under the race detector, whose
// instrumentation changes what a run allocates.
var raceEnabled bool

// TestSessionAllocBudget gates the memory one dense session allocates:
// a perfect-crowd run over n = 4000 IND tuples (|AK| = 4, |AC| = 2, the
// shape of the sl-ind-4k benchmark workload) must allocate less than
// 15 MiB in total, under ParallelSL and under ParallelDSet. Sessions read
// DS(t) from the dominance bitmap; materializing the Σ|DS(t)|
// dominating-set lists again adds about 8 MB and fails the gate (19.5 MB
// against 11.5 MB without them). ParallelDSet's batching marks each
// batch's dominators in an n-bit set; an n-entry []bool per batch
// instead fails it too (22.0 MiB).
func TestSessionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	const budget = 15 << 20
	d := randomDataset(1, 4000, 4, 2, dataset.Independent)
	for _, s := range []Schedule{BySkylineLayers, ByDominatingSets} {
		opts := AllPruning()
		opts.Schedule = s
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := Run(d, perfect(d), opts)
		runtime.ReadMemStats(&after)
		if len(res.Skyline) == 0 {
			t.Fatalf("%s: the session found no skyline", s)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
			t.Errorf("%s: one session allocated %.1f MiB; want under %d MiB", s, float64(got)/(1<<20), budget>>20)
		}
	}
}

// TestZeroAlloc is the CI gate for the per-round session step: folding an
// already-seen batch of answers back into the preference graphs and the
// direct-answer record, then running the completeness and AC-dominance
// checks, must not allocate. Fresh insertions write into pre-sized bit
// sets and an existing map slot, so re-apply exercises the same code paths
// deterministically. attrKnown runs on both of its paths: the preference
// tree (P2 on) and the direct-answer record (no P2 or P3).
func TestZeroAlloc(t *testing.T) {
	d := randomDataset(5, 64, 3, 2, dataset.Independent)
	ss := newSession(d, perfect(d), Options{P2: true})
	direct := newSession(d, perfect(d), Options{})
	direct.direct = make(map[directKey]crowd.Preference)
	var answers []crowd.Answer
	for i := 0; i < 16; i++ {
		for j := 0; j < d.CrowdDims(); j++ {
			answers = append(answers, crowd.Answer{
				Q:    crowd.Question{A: i, B: i + 1, Attr: j},
				Pref: crowd.First,
			})
		}
	}
	ss.apply(answers) // populate the direct map and the graphs once
	direct.apply(answers)
	if !ss.useT || direct.useT {
		t.Fatalf("useT = %v (graph session), %v (direct session); want true, false", ss.useT, direct.useT)
	}
	if got := ss.acCompare(0, 1); got != 1 {
		t.Fatalf("acCompare(0, 1) = %d after 0 was preferred on every attribute; want 1", got)
	}
	if !direct.attrKnown(0, 1, 0) || direct.attrKnown(0, 2, 0) {
		t.Fatal("direct-answer attrKnown must see answered pairs only")
	}
	step := func() {
		ss.apply(answers)
		direct.apply(answers)
		for i := 0; i < 15; i++ {
			_ = ss.pairKnown(i, i+1)
			_, _ = ss.directAnswer(i, i+1, 0)
			_ = ss.acCompare(i, i+1)
			for j := 0; j < d.CrowdDims(); j++ {
				_ = ss.attrKnown(i, i+1, j)
				_ = direct.attrKnown(i, i+1, j)
			}
		}
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("session step allocated %.2f times per run; want 0", avg)
	}
}

// TestZeroAllocSteadyStateRound gates the full serving round: the same
// roundBench harness BenchmarkRound times must not allocate once warm —
// answer folding, completeness checks, and request regeneration included.
func TestZeroAllocSteadyStateRound(t *testing.T) {
	d := randomDataset(6, 128, 3, 2, dataset.Independent)
	rb := newRoundBench(d, AllPruning(), 48)
	if unknown := rb.Round(); unknown != 0 {
		t.Fatalf("warm round left %d pairs unknown", unknown)
	}
	if avg := testing.AllocsPerRun(100, func() { rb.Round() }); avg != 0 {
		t.Fatalf("steady-state round allocated %.2f times per run; want 0", avg)
	}
}

// TestZeroAllocSteadyStateRoundFanOut is the same gate with every
// section fanned out and at least two Ps, so each round's fold runs one
// crowd attribute on a helper: starting and waiting for a helper must
// not allocate either.
func TestZeroAllocSteadyStateRoundFanOut(t *testing.T) {
	setFanOut(t, 0)
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	d := randomDataset(6, 128, 3, 2, dataset.Independent)
	rb := newRoundBench(d, AllPruning(), 48)
	if unknown := rb.Round(); unknown != 0 {
		t.Fatalf("warm round left %d pairs unknown", unknown)
	}
	if len(rb.ss.helpers) == 0 {
		t.Fatal("the fold started no helper")
	}
	if avg := testing.AllocsPerRun(100, func() { rb.Round() }); avg != 0 {
		t.Fatalf("steady-state round with fan-out allocated %.2f times per run; want 0", avg)
	}
}

// TestZeroAllocQgen gates question generation on warm session scratch:
// the P1/P2 reduction of DS(t) read from the bitmap row (pruneDS)
// allocates only the set it returns, P2's window (acSkyline) does not
// allocate, and P3's order (probeOrder) allocates only the list it
// returns. The tree has equality classes, contradictions and rows of
// several words, over two crowd attributes.
func TestZeroAllocQgen(t *testing.T) {
	const n = 200
	d := randomDataset(7, n, 3, 2, dataset.Independent)
	ss := newSession(d, perfect(d), AllPruning())
	ss.prepMachine()
	rng := rand.New(rand.NewSource(7))
	feedRandomAnswers(ss, rng, n, 3*n)
	widest := 0
	for u := 0; u < n; u++ {
		if ss.ix.DominatorCount(u) > ss.ix.DominatorCount(widest) {
			widest = u
		}
		if u%3 == 0 {
			ss.setStatus(u, dominated) // P1 has members to drop
		}
	}
	if ds := ss.gen.pruneDS(widest, nil, nil); len(ds) == 0 || len(ds) == ss.ix.DominatorCount(widest) {
		t.Fatalf("pruneDS kept %d of %d members; want a proper reduction", len(ds), ss.ix.DominatorCount(widest))
	}
	if avg := testing.AllocsPerRun(100, func() { ss.gen.pruneDS(widest, nil, nil) }); avg != 1 {
		t.Fatalf("pruneDS allocated %.2f times per run; want 1, the returned set", avg)
	}
	set := randomSubset(rng, n)
	buf := make([]int, len(set))
	var sky []int
	step := func() {
		copy(buf, set)
		sky = ss.gen.acSkyline(buf)
	}
	step() // warm up: the window scratch grows to its high-water mark
	if len(sky) == 0 || len(sky) == len(set) {
		t.Fatalf("acSkyline kept %d of %d members; want a proper reduction", len(sky), len(set))
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("acSkyline allocated %.2f times per run; want 0", avg)
	}
	for _, order := range []ProbeOrder{FreqDescending, FreqAscending, PairOrder} {
		ss.gen.probeOrder(set, order)
		if avg := testing.AllocsPerRun(20, func() { ss.gen.probeOrder(set, order) }); avg != 1 {
			t.Fatalf("probeOrder(%d) allocated %.2f times per run; want 1, the returned list", order, avg)
		}
	}
}
