package ssa

import "go/token"

// Problem is one forward value analysis over a Func: a join-semilattice
// of facts E and a transfer function over values. Solve runs a sparse
// worklist over the def-use chains — only values whose inputs changed
// are re-evaluated, the SSA analogue of the cfg package's block-level
// Flow solver.
//
// E must be comparable (the solver detects fixpoints with ==) and Join
// must be commutative, associative and idempotent with Bottom as its
// identity. Transfer must be monotone or the solver may not terminate
// on loops.
type Problem[E comparable] struct {
	// Bottom is the "no information yet" element every value starts at.
	Bottom E
	// Join merges facts at phi nodes.
	Join func(a, b E) E
	// Transfer computes the fact for a non-phi, non-pi value. get
	// returns the current fact of an argument.
	Transfer func(v *Value, get func(*Value) E) E
	// Refine computes the fact for a pi value from its input fact and
	// the refinement predicate. Nil means pi nodes pass their input
	// through unchanged.
	Refine func(pi *Value, in E) E
}

// Solve runs the analysis to fixpoint and returns the fact for every
// value, indexed by Value.ID.
func (p Problem[E]) Solve(f *Func) []E {
	facts := make([]E, len(f.Values))
	for i := range facts {
		facts[i] = p.Bottom
	}
	get := func(v *Value) E { return facts[v.ID] }
	eval := func(v *Value) E {
		switch v.Kind {
		case KPhi:
			out := p.Bottom
			for _, a := range v.Args {
				if a != nil {
					out = p.Join(out, facts[a.ID])
				}
			}
			return out
		case KPi:
			in := facts[v.Args[0].ID]
			if p.Refine == nil {
				return in
			}
			return p.Refine(v, in)
		default:
			return p.Transfer(v, get)
		}
	}

	// Seed in ID order (deterministic), then chase changed uses.
	inQueue := make([]bool, len(f.Values))
	queue := make([]*Value, 0, len(f.Values))
	for _, v := range f.Values {
		queue = append(queue, v)
		inQueue[v.ID] = true
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		inQueue[v.ID] = false
		next := eval(v)
		if next == facts[v.ID] {
			continue
		}
		facts[v.ID] = next
		for _, u := range v.Uses {
			if !inQueue[u.ID] {
				inQueue[u.ID] = true
				queue = append(queue, u)
			}
		}
	}
	return facts
}

// ---------------------------------------------------------------------
// Nilness lattice

// Nilness is a bitmask fact about a value's nil-ness: which of {nil,
// non-nil, unknown-provenance} the value may be on some path. Zero is
// bottom ("unreached"). Join is bitwise or.
type Nilness uint8

const (
	// NilBit: the value is nil on at least one path.
	NilBit Nilness = 1 << iota
	// NonNilBit: the value is non-nil on at least one path.
	NonNilBit
	// UnknownBit: the value's provenance gives no nil information
	// (parameter, field load, external call, ...).
	UnknownBit
)

// MayBeNil reports whether a nil path or unknown provenance reaches the
// value — i.e. it is not proven non-nil.
func (n Nilness) MayBeNil() bool { return n != 0 && n&NonNilBit != n }

// IsNil reports whether the value is nil on every known path.
func (n Nilness) IsNil() bool { return n != 0 && n == NilBit }

// JoinNilness is the Nilness join (bitwise or).
func JoinNilness(a, b Nilness) Nilness { return a | b }

// RefineNilness interprets a pi predicate over the nilness fact: a
// comparison against nil narrows the mask on the refined edge.
func RefineNilness(pi *Value, in Nilness) Nilness {
	r := pi.Refine
	if r == nil || r.Y == nil || !r.Y.IsNil {
		return in
	}
	switch r.Op {
	case token.NEQ: // x != nil holds here
		if in == 0 {
			return 0
		}
		return NonNilBit
	case token.EQL: // x == nil holds here
		if in == 0 {
			return 0
		}
		return NilBit
	}
	return in
}

// ---------------------------------------------------------------------
// Taint lattice

// Taint tracks untrusted data: Tainted means the value derives from an
// untrusted source, Unbounded additionally means no bounds check has
// constrained it (cleared by pi nodes for upper-bound comparisons).
// Zero is bottom/clean. Join is bitwise or.
type Taint uint8

const (
	Tainted Taint = 1 << iota
	Unbounded
)

// JoinTaint is the Taint join (bitwise or).
func JoinTaint(a, b Taint) Taint { return a | b }

// RefineTaint clears the Unbounded bit when the branch proves an upper
// bound on the value: x < e, x <= e, or x == e.
func RefineTaint(pi *Value, in Taint) Taint {
	if r := pi.Refine; r != nil {
		switch r.Op {
		case token.LSS, token.LEQ, token.EQL:
			return in &^ Unbounded
		}
	}
	return in
}
