// Seed input for FuzzSSABuild: allocating shapes (append, make, literals, closures, boxing) in loops and helpers.
package hotalloc

// Root reaches level2 through level1: findings there carry the chain.
//
//skylint:hotpath
func Root(xs []int) int {
	return level1(xs)
}

func level1(xs []int) int { return level2(xs) }

func level2(xs []int) int {
	seen := make(map[int]bool)
	out := 0
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out += x
		}
	}
	return out
}

// Grow appends without a provable capacity.
//
//skylint:hotpath
func Grow(dst, src []int) []int {
	return append(dst, src...)
}

// Literals allocates composite literals of reference types.
//
//skylint:hotpath
func Literals() ([]int, map[string]int) {
	xs := []int{1, 2, 3}
	m := map[string]int{"a": 1}
	return xs, m
}

// Concat builds a string per call.
//
//skylint:hotpath
func Concat(a, b string) string {
	return a + b
}

// Boxing converts a concrete value to an interface at a call site.
//
//skylint:hotpath
func Boxing(v int) any {
	return box(v)
}

func box(v any) any { return v }

// Capture hands a variable-capturing closure to a helper.
//
//skylint:hotpath
func Capture(xs []int) int {
	total := 0
	each(xs, func(x int) {
		total += x
	})
	return total
}

func each(xs []int, f func(int)) {
	for _, x := range xs {
		f(x)
	}
}

// MapRange iterates a map on the hot path.
//
//skylint:hotpath
func MapRange(m map[int]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}

// Waived documents its deliberate allocation: no finding.
//
//skylint:hotpath
func Waived() map[int]int {
	return make(map[int]int) //skylint:alloc-ok one-time table, amortized across the session
}

// BadWaiver omits the mandatory reason.
//
//skylint:hotpath
func BadWaiver() map[int]int {
	return make(map[int]int) //skylint:alloc-ok
}

// Bad carries a typo'd scope argument.
//
//skylint:hotpath fast
func Bad() {}

// cold is unannotated and unreachable from any root: allocate freely.
func cold() map[int]int { return map[int]int{1: 1} }
