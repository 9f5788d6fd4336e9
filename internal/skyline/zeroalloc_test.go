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
