package skyline

import (
	"slices"
	"sort"

	"crowdsky/internal/dataset"
)

// BNL computes SKY_AK(R) with the block-nested-loops algorithm of
// Börzsönyi et al.: maintain a window of incomparable candidates; each
// incoming tuple is dropped if dominated, replaces any window tuples it
// dominates, and joins the window otherwise. Returns tuple indices in
// ascending order.
func BNL(d *dataset.Dataset) []int {
	var window []int
	for t := 0; t < d.N(); t++ {
		dominated := false
		keep := window[:0]
		for _, w := range window {
			if dominated {
				keep = append(keep, w)
				continue
			}
			switch {
			case DominatesKnown(d, w, t):
				dominated = true
				keep = append(keep, w)
			case DominatesKnown(d, t, w):
				// w is evicted.
			default:
				keep = append(keep, w)
			}
		}
		window = keep
		if !dominated {
			window = append(window, t)
		}
	}
	sort.Ints(window)
	return window
}

// SFS computes SKY_AK(R) with the sort-filter-skyline algorithm: tuples are
// scanned in ascending order of an entropy-like monotone score (here the
// attribute sum), which guarantees no later tuple can dominate an earlier
// one, so a single filtering pass suffices. Rounding can tie the sums of a
// dominator and its target, so equal scores fall back to lexicographic
// row order, in which a dominator always comes first. Returns tuple
// indices in ascending order.
func SFS(d *dataset.Dataset) []int {
	n := d.N()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	score := make([]float64, n)
	for i := 0; i < n; i++ {
		row := d.KnownRow(i)
		for _, v := range row {
			score[i] += v
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := score[order[a]], score[order[b]]
		if sa < sb || sb < sa {
			return sa < sb
		}
		return slices.Compare(d.KnownRow(order[a]), d.KnownRow(order[b])) < 0
	})

	var sky []int
	for _, t := range order {
		dominated := false
		for _, s := range sky {
			if DominatesKnown(d, s, t) {
				dominated = true
				break
			}
		}
		if !dominated {
			sky = append(sky, t)
		}
	}
	sort.Ints(sky)
	return sky
}

// KnownSkyline computes SKY_AK(R). It is an alias for SFS, the faster of
// the implemented machine algorithms; BNL is retained as an independent
// implementation for cross-checking.
func KnownSkyline(d *dataset.Dataset) []int { return SFS(d) }

// Layers computes the skyline layers SL1, SL2, ... of Definition 6: SL1 is
// SKY_AK(R) and SL_i is the skyline of what remains after peeling the first
// i-1 layers. Every tuple appears in exactly one layer. Each layer's
// indices are in ascending order.
func Layers(d *dataset.Dataset) [][]int {
	n := d.N()
	remaining := make([]bool, n)
	for i := range remaining {
		remaining[i] = true
	}
	left := n
	var layers [][]int
	for left > 0 {
		var layer []int
		for t := 0; t < n; t++ {
			if !remaining[t] {
				continue
			}
			dominated := false
			for s := 0; s < n && !dominated; s++ {
				if s != t && remaining[s] && DominatesKnown(d, s, t) {
					dominated = true
				}
			}
			if !dominated {
				layer = append(layer, t)
			}
		}
		for _, t := range layer {
			remaining[t] = false
		}
		left -= len(layer)
		layers = append(layers, layer)
	}
	return layers
}

// TopKDominating returns the k tuples with the highest domination counts
// over the known attributes (most-dominating first, ties by index) — the
// top-k dominating query of the dominant-graph line of work the paper
// cites ([27]). Unlike the skyline it always returns exactly
// min(k, n) tuples, which makes it a useful companion readout when the
// skyline itself is too large.
func TopKDominating(d *dataset.Dataset, k int) []int {
	n := d.N()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	counts := make([]int, n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s != t && DominatesKnown(d, s, t) {
				counts[s]++
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if counts[order[a]] != counts[order[b]] {
			return counts[order[a]] > counts[order[b]]
		}
		return order[a] < order[b]
	})
	return order[:k]
}
