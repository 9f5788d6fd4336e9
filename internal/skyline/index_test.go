package skyline

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"crowdsky/internal/bitset"
	"crowdsky/internal/dataset"
)

// naiveTranspose64 is the obvious three-line bit transpose the fast one
// must match.
func naiveTranspose64(in [64]uint64) [64]uint64 {
	var out [64]uint64
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			if in[j]&(1<<uint(i)) != 0 {
				out[i] |= 1 << uint(j)
			}
		}
	}
	return out
}

func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := [][64]uint64{{}, {1}, {0: 1 << 63}, {63: 1}}
	var diag, dense [64]uint64
	for i := range diag {
		diag[i] = 1 << uint(i)
		dense[i] = ^uint64(0)
	}
	cases = append(cases, diag, dense)
	for c := 0; c < 32; c++ {
		var m [64]uint64
		for i := range m {
			m[i] = rng.Uint64()
		}
		cases = append(cases, m)
	}
	for ci, in := range cases {
		got := in
		transpose64(&got)
		if want := naiveTranspose64(in); got != want {
			t.Fatalf("case %d: transpose64 disagrees with naive transpose", ci)
		}
		back := got
		transpose64(&back)
		if back != in {
			t.Fatalf("case %d: transpose64 is not an involution", ci)
		}
	}
}

// withDuplicates returns a copy of d where some rows are exact duplicates
// and some share an attribute sum without being equal, exercising the
// equal-score-run handling of the index.
func withDuplicates(t *testing.T, d *dataset.Dataset, seed int64) *dataset.Dataset {
	t.Helper()
	n := d.N()
	rng := rand.New(rand.NewSource(seed))
	known := make([][]float64, n)
	latent := make([][]float64, n)
	for i := 0; i < n; i++ {
		known[i] = append([]float64(nil), d.KnownRow(i)...)
		latent[i] = make([]float64, d.CrowdDims())
		for j := range latent[i] {
			latent[i][j] = d.Latent(i, j)
		}
	}
	for k := 0; k < n/4; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		copy(known[i], known[j]) // exact AK duplicate, distinct AC
	}
	for k := 0; k < n/4 && d.KnownDims() >= 2; k++ {
		// Same sum, different tuple: swap two attributes of a copied row.
		i, j := rng.Intn(n), rng.Intn(n)
		copy(known[i], known[j])
		known[i][0], known[i][1] = known[i][1], known[i][0]
	}
	return dataset.MustNew(known, latent)
}

func indexDatasets(t *testing.T) map[string]*dataset.Dataset {
	t.Helper()
	out := map[string]*dataset.Dataset{
		"IND":        randData(11, 300, 4, 2, dataset.Independent),
		"ANT":        randData(12, 300, 4, 2, dataset.AntiCorrelated),
		"COR":        randData(13, 300, 4, 2, dataset.Correlated),
		"IND-1d":     randData(14, 120, 1, 1, dataset.Independent),
		"ANT-wide":   randData(15, 150, 6, 3, dataset.AntiCorrelated),
		"no-crowd":   randData(16, 200, 3, 0, dataset.Independent),
		"tiny":       randData(17, 2, 2, 1, dataset.Independent),
		"singleton":  randData(18, 1, 3, 1, dataset.Independent),
		"duplicates": nil,
	}
	out["duplicates"] = withDuplicates(t, randData(19, 240, 3, 2, dataset.Independent), 19)
	out["rounding-ties"] = roundingTies()
	return out
}

// roundingTies builds tuples whose attribute sums round to exact ties
// although they dominate each other: at 2^53 the float spacing is 2, so
// (2^53, 0.1) and (2^53, 0.9) both sum to 2^53. Within an equal-score run
// the index orders tuples by original index, and the index here runs
// against dominance, so every dominator of a run member sorts after it.
// A second run at 2^53+2 is dominated across runs, and an exact duplicate
// adds a weak-only pair.
func roundingTies() *dataset.Dataset {
	const big = 1 << 53
	var known, latent [][]float64
	for i := 0; i < 8; i++ {
		known = append(known, []float64{big, 0.9 - 0.1*float64(i)})
	}
	for i := 0; i < 4; i++ {
		known = append(known, []float64{big + 2, 0.85 - 0.2*float64(i)})
	}
	known = append(known, []float64{big, 0.5})
	for i := range known {
		latent = append(latent, []float64{float64((i * 7) % 5)})
	}
	return dataset.MustNew(known, latent)
}

// checkIndexAgainstNaive asserts every Index derivation is bit-for-bit
// the naive construction's result, including nil-versus-empty and
// ordering.
func checkIndexAgainstNaive(t *testing.T, d *dataset.Dataset) {
	t.Helper()
	ix := NewIndex(d)

	wantSets := DominatingSets(d)
	gotSets := ix.DominatingSets()
	if !reflect.DeepEqual(gotSets, wantSets) {
		t.Fatalf("DominatingSets: index disagrees with naive\n got %v\nwant %v", gotSets, wantSets)
	}
	for tt, s := range wantSets {
		if (s == nil) != (gotSets[tt] == nil) {
			t.Fatalf("DominatingSets: nil-ness mismatch at tuple %d", tt)
		}
	}

	wantIm := ImmediateDominators(d, wantSets)
	if gotIm := ix.ImmediateDominators(); !reflect.DeepEqual(gotIm, wantIm) {
		t.Fatalf("ImmediateDominators: index disagrees with naive\n got %v\nwant %v", gotIm, wantIm)
	}

	wantFC := NewFreqCounter(d, wantSets)
	gotFC := ix.FreqCounter()
	n := d.N()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if got, want := gotFC.Freq(u, v), wantFC.Freq(u, v); got != want {
				t.Fatalf("Freq(%d,%d) = %d, naive %d", u, v, got, want)
			}
		}
	}

	st := ix.Stats()
	pairs := 0
	for _, s := range wantSets {
		pairs += len(s)
	}
	if st.Pairs != pairs || st.N != n || st.BitmapBytes <= 0 {
		t.Fatalf("Stats %+v inconsistent (want pairs %d, n %d)", st, pairs, n)
	}
	if !ix.Matches(d) || ix.Matches(randData(99, 4, 2, 0, dataset.Independent)) {
		t.Fatalf("Matches wrong")
	}
}

func TestIndexMatchesNaive(t *testing.T) {
	for name, d := range indexDatasets(t) {
		d := d
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkIndexAgainstNaive(t, d)
		})
	}
}

// checkAliveAgainstNaive asserts that an alive-restricted index agrees
// with the naive constructions over the alive tuples: the pair-wise
// dominating sets, c(t), freq(u,v) and the tuple count — every derivation
// ParallelSL reads after the degenerate-case preprocessing removed
// tuples.
func checkAliveAgainstNaive(t *testing.T, d *dataset.Dataset, alive []bool) {
	t.Helper()
	n := d.N()
	ix := NewIndexAlive(d, alive)

	wantSets := make([][]int, n)
	aliveCount := 0
	for tt := 0; tt < n; tt++ {
		if !alive[tt] {
			continue
		}
		aliveCount++
		for s := 0; s < n; s++ {
			if s != tt && alive[s] && DominatesKnown(d, s, tt) {
				wantSets[tt] = append(wantSets[tt], s)
			}
		}
	}
	if got := ix.Stats().N; got != aliveCount {
		t.Fatalf("alive Stats().N = %d, want %d", got, aliveCount)
	}
	if got := ix.Matches(d); got != (aliveCount == n) {
		t.Fatalf("alive Matches(d) = %v with %d of %d tuples alive", got, aliveCount, n)
	}
	if got := ix.DominatingSets(); !reflect.DeepEqual(got, wantSets) {
		t.Fatalf("alive DominatingSets: index disagrees with naive restriction\n got %v\nwant %v", got, wantSets)
	}
	if got, want := ix.ImmediateDominators(), ImmediateDominators(d, wantSets); !reflect.DeepEqual(got, want) {
		t.Fatalf("alive ImmediateDominators: index disagrees with naive\n got %v\nwant %v", got, want)
	}
	fc := ix.FreqCounter()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			want := 0
			if alive[u] && alive[v] {
				for x := 0; x < n; x++ {
					if alive[x] && x != u && x != v && DominatesKnown(d, u, x) && DominatesKnown(d, v, x) {
						want++
					}
				}
			}
			if got := fc.Freq(u, v); got != want {
				t.Fatalf("alive Freq(%d,%d) = %d, want %d", u, v, got, want)
			}
		}
	}
}

func TestIndexAliveMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, d := range []*dataset.Dataset{
		randData(31, 250, 4, 2, dataset.Independent),
		withDuplicates(t, randData(33, 160, 3, 1, dataset.AntiCorrelated), 33),
		roundingTies(),
	} {
		alive := make([]bool, d.N())
		for i := range alive {
			alive[i] = rng.Intn(4) != 0
		}
		checkAliveAgainstNaive(t, d, alive)
	}
}

func TestIndexAliveAllTrueMatchesUnrestricted(t *testing.T) {
	d := randData(32, 100, 3, 1, dataset.Independent)
	alive := make([]bool, d.N())
	for i := range alive {
		alive[i] = true
	}
	ix := NewIndexAlive(d, alive)
	if !ix.Matches(d) {
		t.Fatalf("all-true mask should normalize to unrestricted")
	}
}

// TestIndexParallelPath forces the sharded kernels at two workers so the
// race detector sees the concurrent chunk writes, transpose blocks and
// derivation shards: the datasets span two candidate chunks, so both
// chunk workers claim one.
func TestIndexParallelPath(t *testing.T) {
	old := parallelThreshold
	parallelThreshold = 1
	prev := setMaxWorkers(2)
	t.Cleanup(func() { parallelThreshold = old; setMaxWorkers(prev) })
	for _, dist := range []dataset.Distribution{dataset.Independent, dataset.AntiCorrelated} {
		checkIndexAgainstNaive(t, randData(41+int64(dist), indexCandChunk+130, 3, 2, dist))
	}
}

// TestIndexManyChunks crosses the candidate-chunk boundary so multi-tile
// targets and the chunk clamping are exercised.
func TestIndexManyChunks(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential")
	}
	d := randData(51, indexCandChunk+300, 3, 1, dataset.AntiCorrelated)
	ix := NewIndex(d)
	if got, want := ix.DominatingSets(), DominatingSets(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("DominatingSets disagrees across chunk boundary")
	}
}

// TestDominatorRows checks the row accessors sessions read DS(t) through
// against DominatingSets, on IND, ANT and COR data, exact duplicates and
// rounded score ties, each unrestricted and alive-restricted: |DS(t)|,
// the members outside no mask and outside random position masks (sorted
// back into tuple order), and the first pending word against a scan of
// DS(t)'s positions.
func TestDominatorRows(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	shapes := map[string]*dataset.Dataset{
		"IND":           randData(81, 300, 4, 2, dataset.Independent),
		"ANT":           randData(82, 300, 3, 1, dataset.AntiCorrelated),
		"COR":           randData(83, 300, 4, 1, dataset.Correlated),
		"duplicates":    withDuplicates(t, randData(84, 240, 3, 2, dataset.Independent), 84),
		"rounding-ties": roundingTies(),
	}
	for name, d := range shapes {
		n := d.N()
		alive := make([]bool, n)
		for i := range alive {
			alive[i] = rng.Intn(4) != 0
		}
		for _, mask := range [][]bool{nil, alive} {
			ix := NewIndexAlive(d, mask)
			sets := ix.DominatingSets()
			m := ix.Stats().N
			if ix.Tuples() != n {
				t.Fatalf("%s: Tuples() = %d, want %d", name, ix.Tuples(), n)
			}
			randomMask := func(density int) bitset.Set {
				b := bitset.New(m)
				for p := 0; p < m; p++ {
					if rng.Intn(density) == 0 {
						b.Add(p)
					}
				}
				return b
			}
			for tt := 0; tt < n; tt++ {
				ds := sets[tt]
				if dead := mask != nil && !mask[tt]; dead != (ix.Pos(tt) < 0) {
					t.Fatalf("%s: Pos(%d) = %d with alive = %v", name, tt, ix.Pos(tt), !dead)
				}
				if got := ix.DominatorCount(tt); got != len(ds) {
					t.Fatalf("%s: DominatorCount(%d) = %d, want %d", name, tt, got, len(ds))
				}
				got := ix.AppendDominators([]int{-1}, tt, nil)
				if got[0] != -1 {
					t.Fatalf("%s: AppendDominators overwrote the destination's prefix", name)
				}
				got = got[1:]
				slices.Sort(got)
				if !slices.Equal(got, ds) {
					t.Fatalf("%s: AppendDominators(%d) = %v, want %v", name, tt, got, ds)
				}
				for _, density := range []int{1, 2, 5} {
					skip := randomMask(density)
					var want []int
					for _, s := range ds {
						if !skip.Has(ix.Pos(s)) {
							want = append(want, s)
						}
					}
					got := ix.AppendDominators(nil, tt, skip)
					slices.Sort(got)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: AppendDominators(%d) outside a 1/%d mask = %v, want %v", name, tt, density, got, want)
					}
					for _, from := range []int{0, 1, rng.Intn(m/64 + 1)} {
						want := -1
						for _, s := range ds {
							if p := ix.Pos(s); p>>6 >= from && skip.Has(p) && (want < 0 || p>>6 < want) {
								want = p >> 6
							}
						}
						if got := ix.PendingWord(tt, from, skip); got != want {
							t.Fatalf("%s: PendingWord(%d, %d) in a 1/%d mask = %d, want %d", name, tt, from, density, got, want)
						}
					}
				}
			}
		}
	}
}

// requireBitIdentical compares two indexes over the same dataset word
// for word: layout, every dominator row, every transposed row, counts,
// and the pair total. This is the "parallel build is deterministic"
// contract — not just equal derivations, the identical bitmap.
func requireBitIdentical(t *testing.T, ref, got *Index, workers int) {
	t.Helper()
	if !reflect.DeepEqual(got.order, ref.order) || !reflect.DeepEqual(got.counts, ref.counts) {
		t.Fatalf("workers=%d: layout or counts differ from serial build", workers)
	}
	if got.stats.Pairs != ref.stats.Pairs {
		t.Fatalf("workers=%d: pairs = %d, serial %d", workers, got.stats.Pairs, ref.stats.Pairs)
	}
	for p := range ref.domBy {
		if !reflect.DeepEqual(got.domBy[p], ref.domBy[p]) {
			t.Fatalf("workers=%d: dominator row %d differs from serial build", workers, p)
		}
		if !reflect.DeepEqual(got.dom[p], ref.dom[p]) {
			t.Fatalf("workers=%d: transposed row %d differs from serial build", workers, p)
		}
	}
	if !reflect.DeepEqual(got.DominatingSets(), ref.DominatingSets()) {
		t.Fatalf("workers=%d: DominatingSets differ from serial build", workers)
	}
}

// TestIndexWorkerCountDeterminism builds the same datasets at 1, 2, 3, 4
// and 8 workers with the fan-out threshold floored, and requires every
// build to be bit-for-bit the one-worker result. The build runs
// min(workers, chunks) chunk workers, so counts above the chunk count
// clamp: the one-chunk shapes build on one worker throughout, and the
// three-chunk shape runs two and three chunk workers.
func TestIndexWorkerCountDeterminism(t *testing.T) {
	oldT := parallelThreshold
	parallelThreshold = 1
	t.Cleanup(func() { parallelThreshold = oldT; setMaxWorkers(0) })
	shapes := map[string]*dataset.Dataset{
		"IND":  randData(71, 260, 4, 0, dataset.Independent),
		"ANT":  randData(72, 300, 3, 0, dataset.AntiCorrelated),
		"dups": withDuplicates(t, randData(73, 220, 3, 1, dataset.Independent), 73),
		"tiny": randData(75, 3, 2, 0, dataset.Independent),
	}
	if !testing.Short() {
		// Three candidate chunks: workers 2 and 3 run that many chunk
		// workers, 4 and 8 clamp to three.
		shapes["multi-chunk"] = randData(74, 2*indexCandChunk+100, 3, 0, dataset.AntiCorrelated)
	}
	for name, d := range shapes {
		t.Run(name, func(t *testing.T) {
			setMaxWorkers(1)
			ref := NewIndex(d)
			for _, w := range []int{2, 3, 4, 8} {
				setMaxWorkers(w)
				requireBitIdentical(t, ref, NewIndex(d), w)
			}
			setMaxWorkers(0)
		})
	}
}

// FuzzIndex drives the full differential battery from fuzzed shape and
// seed bytes, then restricts the same dataset to the tuples whose bit is
// set in the fuzzed mask (bit t%64 for tuple t) and checks the
// alive-restricted index against the naive restriction.
func FuzzIndex(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(3), uint8(2), uint8(0), uint64(0xF0F0F0))
	f.Add(int64(2), uint8(24), uint8(1), uint8(0), uint8(1), uint64(0x5A5A5A))
	f.Add(int64(3), uint8(7), uint8(5), uint8(3), uint8(2), uint64(0))
	f.Add(int64(4), uint8(1), uint8(2), uint8(1), uint8(0), uint64(1))
	f.Add(int64(5), uint8(16), uint8(4), uint8(2), uint8(1), ^uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, n, dk, dc, dist uint8, mask uint64) {
		nn := int(n%24) + 1
		dkk := int(dk%5) + 1
		dcc := int(dc % 4)
		d := randData(seed, nn, dkk, dcc, dataset.Distribution(dist%3))
		if seed%2 == 0 {
			d = withDuplicates(t, d, seed)
		}
		checkIndexAgainstNaive(t, d)
		alive := make([]bool, nn)
		for i := range alive {
			alive[i] = mask>>(i%64)&1 == 1
		}
		checkAliveAgainstNaive(t, d, alive)
	})
}

// TestTransposedRowsStartAtRun checks the transposed bitmap's layout,
// unrestricted and alive-restricted: every position's row holds the words
// from the one holding the first position of its equal-score run, found
// here by walking back to where the run begins, to the last word.
func TestTransposedRowsStartAtRun(t *testing.T) {
	shapes := indexDatasets(t)
	shapes["IND-4000"] = randData(1, 4000, 4, 2, dataset.Independent)
	for name, d := range shapes {
		alive := make([]bool, d.N())
		for i := range alive {
			alive[i] = i%3 != 1
		}
		for _, ix := range []*Index{NewIndex(d), NewIndexAlive(d, alive)} {
			words := (ix.m + 63) >> 6
			for p := 0; p < ix.m; p++ {
				lo := p
				for lo > 0 && ix.runEnd[lo-1] == ix.runEnd[p] {
					lo--
				}
				if ix.domStart[p] != lo>>6 || len(ix.dom[p]) != words-lo>>6 {
					t.Fatalf("%s (%d positions): row %d starts at word %d and holds %d words; its run starts at %d, so want word %d and %d words",
						name, ix.m, p, ix.domStart[p], len(ix.dom[p]), lo, lo>>6, words-lo>>6)
				}
			}
		}
	}
}
