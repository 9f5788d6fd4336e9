package skyline

import (
	"fmt"
	"runtime"
	"testing"

	"crowdsky/internal/dataset"
)

// Micro-benchmarks for the machine substrate: the naive references
// against the index derivations that replace them on the hot path.

func benchData(b *testing.B, n, dk int, dist dataset.Distribution) *dataset.Dataset {
	b.Helper()
	return randData(1, n, dk, 0, dist)
}

// BenchmarkKnownSkyline times the SFS skyline over the known attributes.
func BenchmarkKnownSkyline(b *testing.B) {
	for _, dist := range []dataset.Distribution{dataset.Independent, dataset.AntiCorrelated} {
		d := benchData(b, 2000, 4, dist)
		b.Run(fmt.Sprintf("SFS/%s", dist), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				size = len(SFS(d))
			}
			b.ReportMetric(float64(size), "skyline_size")
		})
	}
}

// sweepSizes are the cardinalities of the kernel scaling sweep.
var sweepSizes = []int{1000, 5000, 10000, 20000}

// sweep runs fn as one sub-benchmark per sweep size over the machine-part
// workload of the paper's evaluation: 4 known and 2 crowd attributes,
// independent distribution.
func sweep(b *testing.B, fn func(b *testing.B, d *dataset.Dataset)) {
	for _, n := range sweepSizes {
		d := randData(1, n, 4, 2, dataset.Independent)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { fn(b, d) })
	}
}

func BenchmarkDominatingSets(b *testing.B) {
	d := benchData(b, 4000, 4, dataset.Independent)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DominatingSets(d)
		}
	})
	b.Run("index", func(b *testing.B) {
		sweep(b, func(b *testing.B, d *dataset.Dataset) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewIndex(d).DominatingSets()
			}
		})
	})
}

// BenchmarkIndexBuild isolates the one-time cost of the columnar engine:
// layout, sort, tiled bitmap kernel, and transpose. Each size runs at
// 1, 2, 4, … workers up to runtime.NumCPU(); serial ÷ parallel at equal n
// is the build's speedup.
func BenchmarkIndexBuild(b *testing.B) {
	var workers []int
	for w := 1; w < runtime.NumCPU(); w *= 2 {
		workers = append(workers, w)
	}
	workers = append(workers, runtime.NumCPU())
	sweep(b, func(b *testing.B, d *dataset.Dataset) {
		for _, w := range workers {
			b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
				defer setMaxWorkers(setMaxWorkers(w))
				b.ReportAllocs()
				var pairs int
				for i := 0; i < b.N; i++ {
					pairs = NewIndex(d).Stats().Pairs
				}
				b.ReportMetric(float64(pairs), "pairs")
			})
		}
	})
}

// BenchmarkImmediateDominators times the index's covered walk, index
// build included.
func BenchmarkImmediateDominators(b *testing.B) {
	sweep(b, func(b *testing.B, d *dataset.Dataset) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewIndex(d).ImmediateDominators()
		}
	})
}

// BenchmarkOracleSkyline times the sharded ground-truth scan.
func BenchmarkOracleSkyline(b *testing.B) {
	d := randData(1, 4000, 4, 2, dataset.Independent)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		OracleSkyline(d)
	}
}

func BenchmarkLayers(b *testing.B) {
	d := benchData(b, 1000, 4, dataset.AntiCorrelated)
	var count int
	for i := 0; i < b.N; i++ {
		count = len(Layers(d))
	}
	b.ReportMetric(float64(count), "layers")
}

func BenchmarkFreqCounter(b *testing.B) {
	d := benchData(b, 2000, 4, dataset.Independent)
	sets := DominatingSets(d)
	fc := NewFreqCounter(d, sets)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fc.Freq(i%d.N(), (i*31+7)%d.N())
	}
}
