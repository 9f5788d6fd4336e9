package core

import (
	"fmt"
	"runtime"
	"testing"

	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/skyline"
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

// BenchmarkQgen times question generation, newTupleEval's P1/P2 reduction
// and P3 order, over every open tuple of a dense IND dataset (|AK| = 4,
// |AC| = 2, the shape of skybench's sl-ind-4k) after a perfect crowd has
// answered every dominating-set pair. The pipelines are built as one
// admission batch through startPipelines, the entry the parallel
// schedules use, so the batch fans out over GOMAXPROCS goroutines as it
// would in a run (-cpu 1 times one goroutine). The session setup and the
// answers are outside the timer.
func BenchmarkQgen(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		d := randomDataset(1, n, 4, 2, dataset.Independent)
		pf := perfect(d)
		ss := newSession(d, pf, AllPruning())
		ss.prepMachine()
		var open []int
		var reqs []crowd.Request
		for t, ds := range dominatingSets(ss) {
			if len(ds) == 0 {
				continue
			}
			open = append(open, t)
			reqs = reqs[:0]
			for _, s := range ds {
				for j := 0; j < d.CrowdDims(); j++ {
					reqs = append(reqs, crowd.Request{Q: crowd.Question{A: s, B: t, Attr: j}, Workers: 1})
				}
			}
			ss.apply(pf.Ask(reqs))
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var active []*tupleEval
			for i := 0; i < b.N; i++ {
				active = ss.startPipelines(active[:0], open, nil)
			}
		})
	}
}

// BenchmarkSessionMemory records what one Serial session allocates over
// ANT data (|AK| = 4, |AC| = 2, the shape of skybench's serial-ant-5k)
// across the kernel sweep's cardinalities, under a perfect crowd:
// alloc_MB/session is the heap the whole session allocates, index and
// preference graphs included, and bitmap_MB the part the dominance index
// holds (IndexStats.BitmapBytes). At n = 20000 one session takes a few
// seconds.
func BenchmarkSessionMemory(b *testing.B) {
	for _, n := range []int{1000, 5000, 10000, 20000} {
		d := randomDataset(1, n, 4, 2, dataset.AntiCorrelated)
		bitmap := skyline.NewIndex(d).Stats().BitmapBytes
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				Run(d, perfect(d), AllPruning())
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/1e6, "alloc_MB/session")
			b.ReportMetric(float64(bitmap)/1e6, "bitmap_MB")
		})
	}
}
