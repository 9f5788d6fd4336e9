// Package bitset implements a fixed-capacity bit set used for dense
// reachability and domination bookkeeping. Tuple indices are small dense
// integers throughout this repository, which makes word-packed bitsets both
// the fastest and the most memory-frugal representation for transitive
// closures (package prefgraph) and co-domination counts (package skyline).
package bitset

import "math/bits"

// Set is a bit set over [0, n) packed into 64-bit words. The zero value is
// an empty set of capacity 0; use New to size it.
type Set []uint64

// New returns an empty bit set able to hold n bits.
func New(n int) Set {
	return make(Set, (n+63)/64)
}

// Add sets bit i.
func (s Set) Add(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Remove clears bit i.
func (s Set) Remove(i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether bit i is set.
func (s Set) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Or sets s to the union s | t. Both sets must have the same capacity.
func (s Set) Or(t Set) {
	for i, w := range t {
		s[i] |= w
	}
}

// Count returns the number of set bits.
func (s Set) Count() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

// AndCount returns |s & t| without materializing the intersection.
func (s Set) AndCount(t Set) int {
	c := 0
	for i, w := range t {
		c += bits.OnesCount64(s[i] & w)
	}
	return c
}

// Intersects reports whether s and t share at least one element, stopping
// at the first common word. The sets may have different capacities; only
// the common prefix is examined, which is exact when the shorter set's
// missing words are known to be zero (the truncated-row convention of the
// skyline dominance bitmaps).
func (s Set) Intersects(t Set) bool {
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	for i := 0; i < n; i++ {
		if s[i]&t[i] != 0 {
			return true
		}
	}
	return false
}

// Clear removes all elements.
func (s Set) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// Carve returns count independent n-bit Sets carved from one backing
// allocation: two heap objects instead of count+1. Structures that hold
// one set per element — the preference-graph closures, the dominance
// bitmap rows — pay O(1) allocations for their whole lifetime this way,
// and the rows land adjacent in memory in index order, which is the
// order the word-scan kernels walk them. Each carved set has full
// capacity (appending to one cannot spill into its neighbor).
func Carve(count, n int) []Set {
	words := (n + 63) / 64
	backing := make([]uint64, count*words)
	sets := make([]Set, count)
	for i := range sets {
		sets[i] = Set(backing[i*words : (i+1)*words : (i+1)*words])
	}
	return sets
}
