// Bottom-up function-summary framework.
//
// An interprocedural analyzer models each function by a summary value
// (lockset uses the set of mutexes a *Locked function requires, lockorder
// the set of mutexes a function acquires) computed from the function's
// own body plus the summaries of its callees. Processing components of the
// condensation in callee-first order makes a single pass sufficient for
// acyclic call structure; mutual recursion (a multi-node component, or a
// self-loop) is solved by iterating the component to a fixpoint.
package callgraph

// BottomUp computes a summary for every node. compute derives n's
// summary; it reads callee summaries through get, which returns the
// final value for callees in earlier components and the current iterate
// for callees in n's own component (zero value on the first visit).
//
// Summary values must be comparable with == (bitmasks, small structs):
// the fixpoint terminates when an iteration changes no member's value,
// so compute must be monotone over its callees' summaries in the usual
// dataflow sense — growing inputs must not shrink the output —
// or cyclic components may oscillate.
func (g *Graph) BottomUp(compute func(n *Node, get func(*Node) any) any) map[*Node]any {
	out := make(map[*Node]any, len(g.Nodes))
	get := func(n *Node) any { return out[n] }
	for _, scc := range g.SCCs() {
		if len(scc) == 1 && !hasSelfEdge(scc[0]) {
			out[scc[0]] = compute(scc[0], get)
			continue
		}
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				v := compute(n, get)
				if v != out[n] {
					out[n] = v
					changed = true
				}
			}
		}
	}
	return out
}

func hasSelfEdge(n *Node) bool {
	for _, e := range n.Out {
		if e.Callee == n {
			return true
		}
	}
	return false
}
