package skyline

import (
	"crowdsky/internal/bitset"
	"crowdsky/internal/dataset"
)

// DominatingSets computes DS(t) = {s : s ≺AK t} for every tuple
// (Definition 5). The result is indexed by tuple: sets[t] lists the
// dominators of t in ascending index order. Tuples in SKY_AK(R) have empty
// dominating sets.
func DominatingSets(d *dataset.Dataset) [][]int {
	n := d.N()
	sets := make([][]int, n)
	for t := 0; t < n; t++ {
		for s := 0; s < n; s++ {
			if s != t && DominatesKnown(d, s, t) {
				sets[t] = append(sets[t], s)
			}
		}
	}
	return sets
}

// ImmediateDominators computes c(t) for every tuple: the dominators of t
// that have no intermediate dominator between themselves and t, i.e.
// c(t) = {s ∈ DS(t) : ¬∃x ∈ DS(t) with s ≺AK x}. These are the direct
// edges of the dominance graph drawn across skyline layers in Figure 5, and
// drive the dependency check of Algorithm 2 (ParallelSL). sets must be the
// result of DominatingSets on the same dataset.
func ImmediateDominators(d *dataset.Dataset, sets [][]int) [][]int {
	n := d.N()
	im := make([][]int, n)
	for t := 0; t < n; t++ {
		ds := sets[t]
		for _, s := range ds {
			immediate := true
			for _, x := range ds {
				if x != s && DominatesKnown(d, s, x) {
					immediate = false
					break
				}
			}
			if immediate {
				im[t] = append(im[t], s)
			}
		}
	}
	return im
}

// FreqCounter answers co-domination frequency queries
//
//	freq(u,v) = |{x ∈ R : u ≺AK x ∧ v ≺AK x}|
//
// used both to order probing questions (Section 3.4) and to grade question
// importance for dynamic voting (Section 5). It precomputes, for each
// tuple, the bit set of tuples it dominates, so each query is a single
// AND-popcount pass.
type FreqCounter struct {
	// dominated[u] = {x : u ≺AK x}. When pos is nil both the row index u
	// and the member bits x are original tuple indices; an index-backed
	// counter (Index.FreqCounter) stores rows and bits in sorted-position
	// space and remaps queries through pos. Frequencies are counts, so the
	// relabeling is invisible to callers. Row u holds the words from
	// start[u] on; the words before it are zero.
	dominated []bitset.Set
	start     []int
	pos       []int // original index -> row; nil means identity
}

// NewFreqCounter builds the counter from the dominating sets of d (the
// inverse relation of what it stores). sets must come from DominatingSets
// on the same dataset.
func NewFreqCounter(d *dataset.Dataset, sets [][]int) *FreqCounter {
	n := d.N()
	fc := &FreqCounter{dominated: make([]bitset.Set, n), start: make([]int, n)}
	for u := 0; u < n; u++ {
		fc.dominated[u] = bitset.New(n)
	}
	for t, ds := range sets {
		for _, s := range ds {
			fc.dominated[s].Add(t)
		}
	}
	return fc
}

// Freq returns freq(u,v), the number of tuples dominated by both u and v
// on the known attributes. Tuples excluded from an alive-restricted index
// dominate nothing, so any query involving one returns 0.
func (fc *FreqCounter) Freq(u, v int) int {
	if fc.pos != nil {
		u, v = fc.pos[u], fc.pos[v]
		if u < 0 || v < 0 {
			return 0
		}
	}
	// Only the words both rows hold can have members in common.
	a, b := fc.dominated[u], fc.dominated[v]
	if d := fc.start[v] - fc.start[u]; d > 0 {
		a = a[d:]
	} else {
		b = b[-d:]
	}
	return a.AndCount(b)
}
