package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/prefgraph"
	"crowdsky/internal/skyline"
)

// The question-generation kernels (acCompare, the P2 window, the keyed P3
// order and the sorted degenerate scan) replace quadratic loops. The
// loops survive here as references, and each kernel must reproduce its
// reference exactly: same sets, same order, same ask sequence.

// refACDominates is the one-direction reference for acCompare: s ≺AC t
// is known when every crowd attribute is Prefer or Equal and at least
// one is Prefer.
func refACDominates(ss *session, s, t int) bool {
	strict := false
	for _, g := range ss.graphs {
		switch g.Known(s, t) {
		case prefgraph.Prefer:
			strict = true
		case prefgraph.Equal:
		default:
			return false
		}
	}
	return strict
}

// refACSkyline is the all-pairs definition of SKY_AC(set): every member
// no other member is known to AC-dominate, in set order.
func refACSkyline(ss *session, set []int) []int {
	var keep []int
	for _, u := range set {
		dominated := false
		for _, v := range set {
			if v != u && refACDominates(ss, v, u) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, u)
		}
	}
	return keep
}

// feedRandomAnswers applies count random answers over n tuples: random
// pairs, attributes and preferences, a fifth of them "equal". They follow
// no latent order, so many contradict the tree and are dropped, and the
// equal answers merge classes.
func feedRandomAnswers(ss *session, rng *rand.Rand, n, count int) {
	prefs := []crowd.Preference{crowd.First, crowd.First, crowd.Second, crowd.Second, crowd.Equal}
	answers := make([]crowd.Answer, 0, count)
	for k := 0; k < count; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		answers = append(answers, crowd.Answer{
			Q:    crowd.Question{A: a, B: b, Attr: rng.Intn(len(ss.graphs))},
			Pref: prefs[rng.Intn(len(prefs))],
		})
	}
	ss.apply(answers)
}

// randomSubset returns an ascending random subset of [0, n), the shape of
// a dominating set.
func randomSubset(rng *rand.Rand, n int) []int {
	var set []int
	keep := rng.Float64()
	for x := 0; x < n; x++ {
		if rng.Float64() < keep {
			set = append(set, x)
		}
	}
	return set
}

// TestACSkylineMatchesAllPairs: on random preference trees, with equality
// classes and dropped contradictions, acCompare agrees with both
// directions of the reference test, and the window pass returns exactly
// the all-pairs SKY_AC in set order. It also checks the identity
// ParallelDSet relies on when it reduces a set at batching time and again
// when the pipeline starts: once the tree has gained answers, reducing the
// earlier reduction equals reducing the whole set. The last cases have
// n in [100, 300] and two or three crowd attributes, so the preference
// rows span several words and a row read at the wrong word shows.
func TestACSkylineMatchesAllPairs(t *testing.T) {
	const small, large = 60, 6
	rng := rand.New(rand.NewSource(14))
	contradictions, farRelations := 0, 0
	for c := 0; c < small+large; c++ {
		n := 10 + rng.Intn(40)
		dc := 1 + rng.Intn(3)
		if c >= small {
			n, dc = 100+rng.Intn(201), 2+rng.Intn(2)
		}
		d := randomDataset(int64(c), n, 2, dc, dataset.Independent)
		ss := newSession(d, perfect(d), Options{P2: true})
		feedRandomAnswers(ss, rng, n, rng.Intn(6*n))
		for s := 0; s < n; s++ {
			for u := 0; u < n; u++ {
				want := 0
				if refACDominates(ss, s, u) {
					want = 1
				} else if refACDominates(ss, u, s) {
					want = -1
				}
				if got := ss.acCompare(s, u); got != want {
					t.Fatalf("case %d: acCompare(%d,%d) = %d, reference %d", c, s, u, got, want)
				}
				if r, _ := ss.graphs[0].Class(u); want != 0 && r >= 64 {
					farRelations++
				}
			}
		}
		var sets, reduced [][]int
		for k := 0; k < 10; k++ {
			set := randomSubset(rng, n)
			want := refACSkyline(ss, set)
			got := ss.gen.acSkyline(slices.Clone(set))
			if !slices.Equal(got, want) {
				t.Fatalf("case %d: acSkyline(%v) = %v, all-pairs %v", c, set, got, want)
			}
			sets, reduced = append(sets, set), append(reduced, got)
		}
		feedRandomAnswers(ss, rng, n, rng.Intn(3*n))
		for k, set := range sets {
			if got, want := ss.gen.acSkyline(slices.Clone(reduced[k])), refACSkyline(ss, set); !slices.Equal(got, want) {
				t.Fatalf("case %d: re-reducing %v after more answers gave %v, reducing the whole set %v", c, reduced[k], got, want)
			}
		}
		contradictions += ss.contradictions()
	}
	if contradictions == 0 {
		t.Fatal("no answer contradicted the tree; the random trees miss the dropped-answer path")
	}
	if farRelations == 0 {
		t.Fatal("no known AC-dominance reads a row past its first word")
	}
}

// TestProbeOrderMatchesComparatorSort: the keyed stable sort orders P(t)
// exactly like the stable sort whose comparator recomputed freq(u,v), in
// every ProbeOrder, on real dominating sets where frequency ties abound.
// probeOrder returns positions into ds, read back here as tuple pairs.
func TestProbeOrderMatchesComparatorSort(t *testing.T) {
	d := randomDataset(21, 300, 3, 1, dataset.Independent)
	ss := newSession(d, perfect(d), AllPruning())
	ss.prepMachine()
	sets := dominatingSets(ss)
	for _, order := range []ProbeOrder{FreqDescending, FreqAscending, PairOrder} {
		for tt, ds := range sets {
			if len(ds) < 2 || len(ds) > 40 {
				continue
			}
			var want []pair
			for i := 0; i < len(ds); i++ {
				for j := i + 1; j < len(ds); j++ {
					want = append(want, makePair(ds[i], ds[j]))
				}
			}
			freq := func(p pair) int { return ss.freq(p.a(), p.b()) }
			switch order {
			case FreqAscending:
				sort.SliceStable(want, func(x, y int) bool { return freq(want[x]) < freq(want[y]) })
			case FreqDescending:
				sort.SliceStable(want, func(x, y int) bool { return freq(want[x]) > freq(want[y]) })
			}
			got := ss.gen.probeOrder(ds, order)
			for k, p := range got {
				got[k] = makePair(ds[p.a()], ds[p.b()]) // positions to tuples
			}
			if !slices.Equal(got, want) {
				t.Fatalf("order %d, tuple %d: probeOrder = %v, comparator sort %v", order, tt, got, want)
			}
		}
	}
}

// refPreprocessDegenerate is the all-pairs degenerate-case scan that the
// sorted scan replaced.
func refPreprocessDegenerate(ss *session) {
	n := ss.d.N()
	for i := 0; i < n; i++ {
		if !ss.alive[i] {
			continue
		}
		for j := i + 1; j < n; j++ {
			if !ss.alive[j] || !skyline.EqualKnown(ss.d, i, j) {
				continue
			}
			ss.askRound(ss.unknownAttrs(i, j, 0, nil))
			switch {
			case refACDominates(ss, i, j):
				ss.alive[j] = false
			case refACDominates(ss, j, i):
				ss.alive[i] = false
			case ss.acEqual(i, j):
				ss.alive[j] = false
				ss.twin[j] = i
			}
			if !ss.alive[i] {
				break
			}
		}
	}
}

// askLog records every question a platform is asked, in order.
type askLog struct {
	crowd.Platform
	asked []crowd.Question
}

func (l *askLog) Ask(reqs []crowd.Request) []crowd.Answer {
	for _, r := range reqs {
		l.asked = append(l.asked, r.Q)
	}
	return l.Platform.Ask(reqs)
}

// degenerateDatasets are the shapes the sorted scan must get right: exact
// duplicates, near-duplicates a billionth apart (distinct under the exact
// equality of the degenerate case), a chain of such near-duplicates,
// groups interleaved by index, rows that tie on the sort key but differ
// elsewhere, random near-collisions, and no known attribute at all.
func degenerateDatasets() map[string]*dataset.Dataset {
	const e = 1e-9
	rng := rand.New(rand.NewSource(3))
	latent := func(n, dc int) [][]float64 {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, dc)
			for j := range rows[i] {
				rows[i][j] = float64(rng.Intn(3))
			}
		}
		return rows
	}
	shaped := [][]float64{
		{1, 5},           // 0: group A
		{2, 3},           // 1: group B
		{1, 5},           // 2: exact duplicate of 0
		{2 + 0.6*e, 3},   // 3: near 1, not equal
		{1 + 0.5*e, 5},   // 4: near 0, not equal
		{2 + 1.2*e, 3},   // 5: near 3, farther from 1
		{7, 0},           // 6: group C
		{1, 5},           // 7: group A again
		{2, 3 + 0.9*e},   // 8: group B's key, off on the second attribute
		{0, 0},           // 9: alone
		{7, 0},           // 10: duplicate of 6
		{1, 6},           // 11: ties group A's key, differs elsewhere
		{1 - 0.7*e, 5},   // 12: just below group A
		{2 + 0.3*e, 3.0}, // 13: just above group B
	}
	out := map[string]*dataset.Dataset{
		"shaped-1ac": dataset.MustNew(shaped, latent(len(shaped), 1)),
		"shaped-2ac": dataset.MustNew(shaped, latent(len(shaped), 2)),
	}
	for c := 0; c < 6; c++ {
		n, dk, dc := 40+rng.Intn(40), 1+rng.Intn(3), 1+rng.Intn(2)
		known := make([][]float64, n)
		for i := range known {
			known[i] = make([]float64, dk)
			for j := range known[i] {
				known[i][j] = float64(rng.Intn(3)) + float64(rng.Intn(3))*0.6*e
			}
		}
		out["random-"+string(rune('a'+c))] = dataset.MustNew(known, latent(n, dc))
	}
	noKnown := make([][]float64, 12)
	for i := range noKnown {
		noKnown[i] = []float64{}
	}
	out["no-known"] = dataset.MustNew(noKnown, latent(len(noKnown), 1))
	return out
}

// TestDegenerateScanMatchesAllPairs: the sorted scan asks exactly the
// all-pairs scan's (i,j) sequence and leaves the same alive and twin
// state, on plain and round-robin sessions.
func TestDegenerateScanMatchesAllPairs(t *testing.T) {
	for name, d := range degenerateDatasets() {
		for _, rr := range []bool{false, true} {
			opts := AllPruning()
			opts.RoundRobinAC = rr
			run := func(scan func(*session)) ([]crowd.Question, []bool, []int) {
				pf := &askLog{Platform: perfect(d)}
				ss := newSession(d, pf, opts)
				scan(ss)
				return pf.asked, ss.alive, ss.twin
			}
			gotQ, gotAlive, gotTwin := run((*session).preprocessDegenerate)
			wantQ, wantAlive, wantTwin := run(refPreprocessDegenerate)
			if len(wantQ) == 0 {
				t.Fatalf("%s: the reference asked nothing; the dataset has no degenerate pair", name)
			}
			if !reflect.DeepEqual(gotQ, wantQ) {
				t.Fatalf("%s rr=%v: ask sequence\n got %v\nwant %v", name, rr, gotQ, wantQ)
			}
			if !slices.Equal(gotAlive, wantAlive) || !slices.Equal(gotTwin, wantTwin) {
				t.Fatalf("%s rr=%v: alive/twin differ\n got %v %v\nwant %v %v", name, rr, gotAlive, gotTwin, wantAlive, wantTwin)
			}
		}
	}
}
