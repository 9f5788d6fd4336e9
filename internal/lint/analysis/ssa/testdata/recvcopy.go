// Seed input for FuzzSSABuild: large structs passed and received by value and by pointer.
package recvcopy

// Big is five words (40 bytes on gc/amd64): over budget.
type Big struct{ A, B, C, D, E int64 }

// Small is two words: within budget.
type Small struct{ A, B int64 }

// Root is the hot entry; its own parameter is already over budget.
//
//skylint:hotpath
func Root(b Big) int {
	return b.Sum() + use(b) + ptr(&b) + small(Small{A: 1})
}

// Sum copies its receiver on every call.
func (b Big) Sum() int {
	return int(b.A + b.B)
}

func use(b Big) int {
	return int(b.C)
}

// ptr passes a pointer: clean.
func ptr(b *Big) int { return int(b.D) }

// small is by value but within the budget: clean.
func small(s Small) int { return int(s.A) }

// unreached is large-by-value but cold: clean.
func unreached(b Big) int { return int(b.E) }
