package skyline

import (
	"slices"
	"sort"

	"crowdsky/internal/dataset"
)

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

// KnownSkyline computes SKY_AK(R) with SFS; Layers(d)[0] is an
// independent cross-check.
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
