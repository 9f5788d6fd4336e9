package skyline

import (
	"math/rand"
	"testing"

	"crowdsky/internal/dataset"
)

// TestZeroAlloc is the CI gate for the dominance query kernels: once an
// index (or frequency counter) is built, point queries must not allocate.
// Freq is one AND-popcount pass over pre-built rows, whether the rows
// come from the index or from the naive dominating sets. A regression here means a query started
// materializing state that belongs in the build phase.
func TestZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := dataset.MustGenerate(dataset.GenerateConfig{
		N: 256, KnownDims: 4, CrowdDims: 2, Distribution: dataset.Independent,
	}, rng)
	ixfc := NewIndex(d).FreqCounter()
	fc := NewFreqCounter(d, DominatingSets(d))
	query := func() {
		for s := 0; s < 16; s++ {
			for u := 0; u < 16; u++ {
				_ = ixfc.Freq(s, u)
				_ = fc.Freq(s, u)
			}
		}
	}
	if avg := testing.AllocsPerRun(100, query); avg != 0 {
		t.Fatalf("index query allocated %.2f times per run; want 0", avg)
	}
}

// TestBitmapBudget gates the memory the dominance index holds on the
// n = 4000 IND dataset (|AK| = 4, the shape of the sl-ind-4k benchmark
// workload): the two bitmaps take at most 2.1 MB. Transposed rows kept
// at full width instead of from their score run take 3.03 MB.
func TestBitmapBudget(t *testing.T) {
	const budget = 2_100_000
	st := NewIndex(randData(1, 4000, 4, 2, dataset.Independent)).Stats()
	t.Logf("bitmaps: %d bytes for %d pairs", st.BitmapBytes, st.Pairs)
	if st.BitmapBytes > budget {
		t.Fatalf("the bitmaps hold %d bytes; want at most %d", st.BitmapBytes, budget)
	}
}
