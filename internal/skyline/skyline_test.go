package skyline

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"crowdsky/internal/dataset"
)

func randData(seed int64, n, dk, dc int, dist dataset.Distribution) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	return dataset.MustGenerate(dataset.GenerateConfig{N: n, KnownDims: dk, CrowdDims: dc, Distribution: dist}, rng)
}

func TestDominance(t *testing.T) {
	d := dataset.MustNew([][]float64{
		{1, 1}, // 0 dominates everything below
		{2, 2}, // 1
		{1, 2}, // 2
		{2, 1}, // 3
		{1, 1}, // 4: duplicate of 0
	}, [][]float64{{0}, {0}, {0}, {0}, {0}})
	if !DominatesKnown(d, 0, 1) || DominatesKnown(d, 1, 0) {
		t.Errorf("plain dominance wrong")
	}
	if !DominatesKnown(d, 0, 2) || !DominatesKnown(d, 0, 3) {
		t.Errorf("weak+strict dominance wrong")
	}
	if DominatesKnown(d, 2, 3) || DominatesKnown(d, 3, 2) {
		t.Errorf("incomparable pair reported dominated")
	}
	if DominatesKnown(d, 0, 4) || DominatesKnown(d, 4, 0) {
		t.Errorf("identical tuples dominate each other")
	}
	if !EqualKnown(d, 0, 4) || EqualKnown(d, 0, 1) {
		t.Errorf("EqualKnown wrong")
	}
}

// bnl is a textbook block-nested-loops skyline kept as a test reference:
// each tuple is compared against the window of undominated tuples seen so
// far, with no presorting. The result is returned in ascending id order.
func bnl(d *dataset.Dataset) []int {
	var window []int
	for t := 0; t < d.N(); t++ {
		dominated := false
		kept := window[:0]
		for _, w := range window {
			if DominatesKnown(d, w, t) {
				dominated = true
			}
			if !DominatesKnown(d, t, w) {
				kept = append(kept, w)
			}
		}
		window = kept
		if !dominated {
			window = append(window, t)
		}
	}
	slices.Sort(window)
	return window
}

// TestBNLvsSFS: independent skyline constructions — the block-nested-loops
// reference, the SFS filter pass and the first layer of the all-pairs peel
// — agree on random data (cross-validation property).
func TestBNLvsSFS(t *testing.T) {
	prop := func(seed int64, rawN uint8, rawDK, rawDist uint8) bool {
		n := int(rawN)%100 + 1
		dk := int(rawDK)%4 + 1
		dist := dataset.Distribution(int(rawDist) % 3)
		d := randData(seed, n, dk, 0, dist)
		want := bnl(d)
		return slices.Equal(SFS(d), want) && slices.Equal(Layers(d)[0], want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAdvancedAlgorithmsWithDuplicates: exact duplicate rows keep every
// twin of a skyline tuple in the skyline, in every construction (BNL
// reference, SFS, Layers and the bitmap index).
func TestAdvancedAlgorithmsWithDuplicates(t *testing.T) {
	twins := dataset.MustNew([][]float64{
		{1, 1}, {1, 1}, {1, 1}, // triple twin, all skyline
		{2, 0.5}, {2, 0.5}, // twin pair, skyline
		{3, 3}, {3, 3}, // twin pair, dominated
		{0.5, 2},
	}, [][]float64{{0}, {0}, {0}, {0}, {0}, {0}, {0}, {0}})
	want := []int{0, 1, 2, 3, 4, 7}
	for name, got := range map[string][]int{
		"BNL":    bnl(twins),
		"SFS":    SFS(twins),
		"Layers": Layers(twins)[0],
		"Index":  undominated(NewIndex(twins).DominatingSets()),
	} {
		if !slices.Equal(got, want) {
			t.Errorf("%s on twins = %v, want %v", name, got, want)
		}
	}
}

// undominated returns the tuples with empty dominating sets, ascending.
func undominated(sets [][]int) []int {
	var sky []int
	for t, s := range sets {
		if len(s) == 0 {
			sky = append(sky, t)
		}
	}
	return sky
}

// TestSkylineDefinition: every skyline member is undominated and every
// non-member is dominated (the defining property, checked brute-force).
func TestSkylineDefinition(t *testing.T) {
	d := randData(3, 80, 3, 0, dataset.AntiCorrelated)
	sky := KnownSkyline(d)
	inSky := make(map[int]bool)
	for _, s := range sky {
		inSky[s] = true
	}
	for t2 := 0; t2 < d.N(); t2++ {
		dominated := false
		for s := 0; s < d.N(); s++ {
			if s != t2 && DominatesKnown(d, s, t2) {
				dominated = true
				break
			}
		}
		if inSky[t2] == dominated {
			t.Errorf("tuple %d: inSkyline=%v dominated=%v", t2, inSky[t2], dominated)
		}
	}
}

// TestLayersPartition: skyline layers partition the dataset; each layer is
// the skyline of what remains; no tuple in layer i is dominated by a tuple
// in layer j > i.
func TestLayersPartition(t *testing.T) {
	d := randData(5, 60, 2, 0, dataset.Independent)
	layers := Layers(d)
	seen := make(map[int]int)
	total := 0
	for li, layer := range layers {
		total += len(layer)
		for _, t2 := range layer {
			if prev, dup := seen[t2]; dup {
				t.Fatalf("tuple %d in layers %d and %d", t2, prev, li)
			}
			seen[t2] = li
		}
	}
	if total != d.N() {
		t.Fatalf("layers cover %d of %d tuples", total, d.N())
	}
	for s := 0; s < d.N(); s++ {
		for t2 := 0; t2 < d.N(); t2++ {
			if s != t2 && DominatesKnown(d, s, t2) && seen[s] >= seen[t2] {
				t.Errorf("dominator %d (layer %d) not in earlier layer than %d (layer %d)",
					s, seen[s], t2, seen[t2])
			}
		}
	}
}

// TestDominatingSetsDefinition: DS(t) is exactly the set of tuples
// dominating t, and |DS| is monotone along dominance (Lemma 3).
func TestDominatingSetsDefinition(t *testing.T) {
	d := randData(7, 50, 3, 0, dataset.AntiCorrelated)
	sets := DominatingSets(d)
	for t2 := 0; t2 < d.N(); t2++ {
		in := make(map[int]bool)
		for _, s := range sets[t2] {
			in[s] = true
			if !DominatesKnown(d, s, t2) {
				t.Errorf("DS(%d) contains non-dominator %d", t2, s)
			}
		}
		for s := 0; s < d.N(); s++ {
			if s != t2 && DominatesKnown(d, s, t2) && !in[s] {
				t.Errorf("DS(%d) misses dominator %d", t2, s)
			}
		}
		// Lemma 3: s ∈ DS(t) implies |DS(s)| < |DS(t)|.
		for _, s := range sets[t2] {
			if len(sets[s]) >= len(sets[t2]) {
				t.Errorf("|DS(%d)| = %d >= |DS(%d)| = %d despite dominance",
					s, len(sets[s]), t2, len(sets[t2]))
			}
		}
	}
}

// TestImmediateDominatorsDefinition: c(t) ⊆ DS(t) with no intermediate
// dominator, and every DS member is reachable from some immediate
// dominator through the dominance DAG.
func TestImmediateDominatorsDefinition(t *testing.T) {
	d := randData(11, 40, 2, 0, dataset.Independent)
	sets := DominatingSets(d)
	imm := ImmediateDominators(d, sets)
	for t2 := 0; t2 < d.N(); t2++ {
		inDS := make(map[int]bool)
		for _, s := range sets[t2] {
			inDS[s] = true
		}
		for _, s := range imm[t2] {
			if !inDS[s] {
				t.Errorf("c(%d) contains %d outside DS", t2, s)
			}
			for _, x := range sets[t2] {
				if x != s && DominatesKnown(d, s, x) {
					t.Errorf("c(%d) member %d has intermediate %d", t2, s, x)
				}
			}
		}
		// Completeness: every DS member dominates (or is) some immediate
		// dominator — i.e. the immediate set covers the DS upward.
		for _, s := range sets[t2] {
			covered := false
			for _, c := range imm[t2] {
				if c == s || DominatesKnown(d, s, c) {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("DS(%d) member %d not covered by c(t)", t2, s)
			}
		}
	}
}

// TestFreqCounter: freq(u,v) equals the brute-force co-domination count.
func TestFreqCounter(t *testing.T) {
	d := randData(13, 40, 2, 0, dataset.AntiCorrelated)
	sets := DominatingSets(d)
	fc := NewFreqCounter(d, sets)
	for u := 0; u < d.N(); u++ {
		for v := u + 1; v < d.N(); v++ {
			want := 0
			for x := 0; x < d.N(); x++ {
				if x != u && x != v && DominatesKnown(d, u, x) && DominatesKnown(d, v, x) {
					want++
				}
			}
			if got := fc.Freq(u, v); got != want {
				t.Fatalf("freq(%d,%d) = %d, want %d", u, v, got, want)
			}
		}
	}
}

// TestOracleSkylineSubsetsKnown: the full skyline always contains the
// AK skyline (complete skyline tuples stay skyline, Example 2).
func TestOracleSkylineSubsetsKnown(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		d := randData(seed, 60, 2, 2, dataset.Independent)
		known := KnownSkyline(d)
		full := OracleSkyline(d)
		inFull := make(map[int]bool)
		for _, t2 := range full {
			inFull[t2] = true
		}
		for _, t2 := range known {
			if !inFull[t2] {
				t.Errorf("seed %d: AK skyline tuple %d missing from full skyline", seed, t2)
			}
		}
	}
}

func TestSortedOutputs(t *testing.T) {
	d := randData(17, 70, 3, 0, dataset.AntiCorrelated)
	for name, sky := range map[string][]int{"SFS": SFS(d), "Oracle": OracleSkyline(d)} {
		if !sort.IntsAreSorted(sky) {
			t.Errorf("%s output not sorted", name)
		}
	}
}

// TestParallelConstructionsMatchSerial: the CPU-sharded constructions —
// the index build and the oracle scan — are bit-identical to their serial
// counterparts, below and above the sharding threshold.
func TestParallelConstructionsMatchSerial(t *testing.T) {
	t.Cleanup(func() { setMaxWorkers(0) })
	for _, n := range []int{50, 2100} {
		d := randData(19, n, 3, 1, dataset.AntiCorrelated)
		serialSets := DominatingSets(d)
		ix := NewIndex(d)
		if !reflect.DeepEqual(ix.DominatingSets(), serialSets) {
			t.Fatalf("n=%d: index DominatingSets differ from the naive sets", n)
		}
		if !reflect.DeepEqual(ix.ImmediateDominators(), ImmediateDominators(d, serialSets)) {
			t.Fatalf("n=%d: index ImmediateDominators differ from the naive c(t)", n)
		}
		setMaxWorkers(1)
		so := OracleSkyline(d)
		setMaxWorkers(0)
		if po := OracleSkyline(d); !reflect.DeepEqual(so, po) {
			t.Fatalf("n=%d: sharded oracle %v, one-worker oracle %v", n, po, so)
		}
	}
}
