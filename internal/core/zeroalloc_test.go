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

// TestSessionAllocBudget gates the memory one session allocates under a
// perfect crowd, in the shapes of two benchmark workloads (|AK| = 4,
// |AC| = 2): ParallelSL and ParallelDSet over n = 4000 IND tuples
// (sl-ind-4k) and Serial over n = 5000 ANT tuples (serial-ant-5k). The
// budgets hold for a one-worker dominance-index build; every further
// build worker adds its private scratch (indexBuildScratch), so the gate
// reads the same on any CPU count. GOMAXPROCS is pinned to 2 because
// every fan-out helper keeps its own question-generation scratch.
// History of what the gate catches:
//   - sessions read DS(t) from the dominance bitmap; materializing the
//     Σ|DS(t)| dominating-set lists again adds about 8 MB;
//   - ParallelDSet's batching marks each batch's dominators in an n-bit
//     set; an n-entry []bool per batch instead added about 10 MiB;
//   - the preference graphs carve a descendant row on its first write,
//     and the transposed dominance rows start at their tuple's score run.
//     With every graph row allocated at New and full-width transposed
//     rows the sessions allocated 10.3 (SL), 12.3 (DSet) and 16.4 MiB
//     (Serial) with one build worker; they now allocate 6.9, 8.9 and
//     12.1 MiB.
func TestSessionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ind := randomDataset(1, 4000, 4, 2, dataset.Independent)
	ant := randomDataset(1, 5000, 4, 2, dataset.AntiCorrelated)
	for _, c := range []struct {
		s         Schedule
		d         *dataset.Dataset
		budgetMiB float64 // with one index build worker
	}{
		{BySkylineLayers, ind, 8.5},
		{ByDominatingSets, ind, 10.5},
		{Serial, ant, 14.5},
	} {
		opts := AllPruning()
		opts.Schedule = c.s
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := Run(c.d, perfect(c.d), opts)
		runtime.ReadMemStats(&after)
		if len(res.Skyline) == 0 {
			t.Fatalf("%s: the session found no skyline", c.s)
		}
		got := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		extra := float64(indexBuildScratch(c.d.N(), c.d.KnownDims())) / (1 << 20)
		t.Logf("%s, n = %d: %.2f MiB (%.2f MiB allowed for extra index build workers)", c.s, c.d.N(), got, extra)
		if got >= c.budgetMiB+extra {
			t.Errorf("%s: one session allocated %.2f MiB; want under %.2f MiB (%.1f MiB plus %.2f MiB for extra index build workers)",
				c.s, got, c.budgetMiB+extra, c.budgetMiB, extra)
		}
	}
}

// indexBuildScratch is what the dominance-index build over n ≥ 2048
// tuples with dims known attributes allocates for its workers beyond the
// first. It runs min(NumCPU, ⌈n/1024⌉) workers, one per 1024-candidate
// chunk at most, and each keeps private rank-kernel tables: per
// attribute, 1025 sorted-prefix rows of 16 words and one int32 rank per
// tuple (skyline's buildBitmap).
func indexBuildScratch(n, dims int) uint64 {
	const chunk = 1024
	workers := min(runtime.NumCPU(), (n+chunk-1)/chunk)
	perWorker := dims * ((chunk+1)*(chunk/64)*8 + n*4)
	return uint64(workers-1) * uint64(perWorker)
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
