package prefgraph

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkAddPreferChain grows a worst-case chain (every insertion
// extends the longest path, maximizing closure propagation).
func BenchmarkAddPreferChain(b *testing.B) {
	const n = 2000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := New(n)
		for v := 1; v < n; v++ {
			g.AddPrefer(v-1, v)
		}
	}
}

// BenchmarkAddPreferPropagation scales the chain shape across sizes so
// the closure-propagation trajectory (quadratic in the chain length) is
// visible in BENCH_*.json diffs.
func BenchmarkAddPreferPropagation(b *testing.B) {
	for _, n := range []int{500, 1000, 2000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := New(n)
				for v := 1; v < n; v++ {
					g.AddPrefer(v-1, v)
				}
			}
		})
	}
}

// BenchmarkAddEqualMerge folds n tuples into one equivalence class,
// exercising the class merge and reach-set union path.
func BenchmarkAddEqualMerge(b *testing.B) {
	const n = 2000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := New(n)
		for v := 1; v < n; v++ {
			g.AddEqual(0, v)
		}
	}
}

// BenchmarkAddPreferRandom inserts uniformly random edges; about half of
// them contradict what is already known.
func BenchmarkAddPreferRandom(b *testing.B) {
	const n = 2000
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := New(n)
		for k := 0; k < 3*n; k++ {
			g.AddPrefer(rng.Intn(n), rng.Intn(n))
		}
	}
}

// BenchmarkAnswerStream replays the answer stream of a perfect crowd: 3n
// comparisons of random pairs, each answered consistently with a hidden
// total order, so none contradicts and most add to the closure. It reports
// the mean cost of folding one answer into the graph.
func BenchmarkAnswerStream(b *testing.B) {
	const n, answers = 5000, 3 * 5000
	rng := rand.New(rand.NewSource(3))
	rank := rng.Perm(n)
	stream := make([][2]int, answers)
	for k := range stream {
		s, t := rng.Intn(n), rng.Intn(n)
		for s == t {
			t = rng.Intn(n)
		}
		if rank[s] > rank[t] {
			s, t = t, s
		}
		stream[k] = [2]int{s, t}
	}
	replay := func(g *Graph) {
		g.Reset()
		for _, a := range stream {
			g.AddPrefer(a[0], a[1])
		}
	}
	g := New(n)
	replay(g) // grow the edge arena to the stream's size once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay(g)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*answers), "ns/answer")
}

// BenchmarkKnownQuery measures the reachability lookup the pruning methods
// hammer.
func BenchmarkKnownQuery(b *testing.B) {
	const n = 2000
	g := New(n)
	rng := rand.New(rand.NewSource(2))
	for k := 0; k < 3*n; k++ {
		g.AddPrefer(rng.Intn(n), rng.Intn(n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Known(i%n, (i*31+7)%n)
	}
}
