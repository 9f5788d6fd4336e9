package core

import (
	"fmt"
	"testing"

	"crowdsky/internal/dataset"
)

// BenchmarkRound times one steady-state serving round (answer folding,
// completeness checks, request regeneration) over 64 dominating-set pairs
// at each cardinality of the kernel sweep, through the roundBench harness
// that TestZeroAllocSteadyStateRound holds at 0 allocs/op. The session
// setup, index build included, is outside the timer.
func BenchmarkRound(b *testing.B) {
	for _, n := range []int{1000, 5000, 10000, 20000} {
		rb := newRoundBench(randomDataset(1, n, 4, 2, dataset.Independent), AllPruning(), 64)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rb.Round()
			}
		})
	}
}
