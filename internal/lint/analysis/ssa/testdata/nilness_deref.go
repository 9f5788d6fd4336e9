// Seed input for FuzzSSABuild: nil definitions and nil checks reaching dereferences, map writes and calls.
package nilness

import "errors"

type node struct {
	next *node
	val  int
}

func definite() int {
	var p *node
	return p.val
}

func maybe(p *node) int {
	if p == nil {
		println("missing")
	}
	return p.val
}

func guarded(p *node) int {
	if p == nil {
		return 0
	}
	return p.val
}

func guardedInverted(p *node) int {
	if p != nil {
		return p.val
	}
	return 0
}

func reassigned(p *node) int {
	if p == nil {
		p = &node{}
	}
	return p.val
}

func starDeref() int {
	var p *int
	return *p
}

// find conditionally returns nil; the bottom-up summary records it.
func find(ok bool) *node {
	if !ok {
		return nil
	}
	return &node{}
}

func useFindUnchecked(ok bool) int {
	return find(ok).val
}

func useFindChecked(ok bool) int {
	n := find(ok)
	if n == nil {
		return 0
	}
	return n.val
}

// load follows the (T, error) contract: the nil result only escapes with
// a non-nil error, so callers that check the error first are clean.
func load(ok bool) (*node, error) {
	if !ok {
		return nil, errors.New("not found")
	}
	return &node{}, nil
}

func useLoadChecked(ok bool) int {
	n, err := load(ok)
	if err != nil {
		return 0
	}
	return n.val
}

func mapWrite() {
	var m map[string]int
	m["k"] = 1
}

func mapRead() int {
	var m map[string]int
	return m["k"] // reading a nil map is legal
}

func sliceIndex() int {
	var s []int
	return s[0] // nil-slice indexing is a bounds failure, not a nilness one
}

func arrayPtrIndex() int {
	var a *[4]int
	return a[0]
}

func sliceAppend() []int {
	var s []int
	s = append(s, 1)
	return s
}

// shortCircuit guards inside a single condition: the CFG does not split
// && / || operands, so these are recovered syntactically.
func shortCircuit(p *node) bool {
	var q *node
	if p != nil {
		q = &node{}
	}
	return q != nil && q.val > 0
}

func shortCircuitOr(p *node) bool {
	var q *node
	if p != nil {
		q = &node{}
	}
	return q == nil || q.val > 0
}

func shortCircuitWrongOp(p *node) bool {
	var q *node
	if p != nil {
		q = &node{}
	}
	// An || disjunct of `q != nil` proves nothing about the RHS.
	return q != nil || q.val > 0
}

// mutatingCall: a method call may assign any field reachable through
// its receiver, so the nil fact on n.next must not survive it.
func (n *node) fill() { n.next = &node{} }

func mutatedField(n *node) int {
	if n.next != nil {
		return 0
	}
	n.fill()
	return n.next.val
}

type closer interface{ Close() }

func nilIfaceCall() {
	var c closer
	c.Close()
}

func nilFuncCall() {
	var f func()
	f()
}

func suppressedDeref() int {
	var p *node
	// skylint:ignore nilness exercising the suppression path
	return p.val
}
