// Hot-path annotations and reachability.
//
// A function becomes a hot-path root with a doc comment directive:
//
//	//skylint:hotpath          — compute scope: the full discipline
//	//skylint:hotpath serve    — serve scope: allocation + copy checks
//	                             only (handlers legitimately lock and
//	                             do I/O)
//
// Everything reachable from a root inherits the root's discipline. An
// individual allocation site inside hot code is waived with
//
//	//skylint:alloc-ok <reason>
//
// on the site's line or the line directly above; the reason is
// mandatory, mirroring the baseline's policy.
package callgraph

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"

	"crowdsky/internal/lint/analysis"
)

// HotScope is the discipline attached to a //skylint:hotpath root.
type HotScope uint8

const (
	// HotNone marks an unannotated function.
	HotNone HotScope = iota
	// HotCompute is the default scope: zero allocations, no large
	// copies, no I/O, no locks, no logging anywhere reachable.
	HotCompute
	// HotServe is the relaxed scope for request handlers: allocation
	// and copy discipline apply, purity does not.
	HotServe
	// HotInvalid marks a directive whose scope argument was not
	// recognized; analyzers report it instead of guessing.
	HotInvalid
)

func (s HotScope) String() string {
	switch s {
	case HotCompute:
		return "compute"
	case HotServe:
		return "serve"
	case HotInvalid:
		return "invalid"
	default:
		return "none"
	}
}

// Directive comments follow the Go convention: they open the comment
// ("//skylint:hotpath", no space after the slashes), so prose that
// merely mentions a directive never triggers it.
var hotpathRE = regexp.MustCompile(`^//skylint:hotpath(?:\s+(\S+))?`)

// hotpathDirective parses a declaration's doc comment group.
func hotpathDirective(doc *ast.CommentGroup) (HotScope, string) {
	if doc == nil {
		return HotNone, ""
	}
	for _, c := range doc.List {
		m := hotpathRE.FindStringSubmatch(c.Text)
		if m == nil {
			continue
		}
		switch m[1] {
		case "", "compute":
			return HotCompute, m[1]
		case "serve":
			return HotServe, m[1]
		default:
			return HotInvalid, m[1]
		}
	}
	return HotNone, ""
}

// AllocOK is one //skylint:alloc-ok waiver.
type AllocOK struct {
	// Pos is the directive comment's position.
	Pos token.Pos
	// Reason is the justification text after the directive; analyzers
	// reject empty reasons.
	Reason string
}

var allocOKRE = regexp.MustCompile(`^//skylint:alloc-ok(?:\s+(.*))?`)

// scanAllocOK records file's alloc-ok directives into ok, keyed by the
// directive's own line and the line below it (the same convention as
// skylint:ignore: trailing comment or the line above the site).
func scanAllocOK(pass *analysis.Pass, file *ast.File, ok map[posKey]*AllocOK) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			m := allocOKRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			reason := m[1]
			// A later "//" starts a new directive or a fixture want
			// comment, not reason text.
			if i := strings.Index(reason, "//"); i >= 0 {
				reason = reason[:i]
			}
			w := &AllocOK{Pos: c.Pos(), Reason: strings.TrimSpace(reason)}
			pos := pass.Fset.Position(c.Pos())
			for _, line := range []int{pos.Line, pos.Line + 1} {
				ok[posKey{pos.Filename, line}] = w
			}
		}
	}
}

// AllocOKAt returns the waiver covering pos (a directive on pos's line
// or the line above), or nil.
func (g *Graph) AllocOKAt(pos token.Pos) *AllocOK {
	p := g.Fset.Position(pos)
	return g.allocOK[posKey{p.Filename, p.Line}]
}

// Roots returns the annotated hot-path roots for which keep returns
// true, in ID order. A nil keep selects every root (including invalid
// ones, so analyzers can report them).
func (g *Graph) Roots(keep func(HotScope) bool) []*Node {
	var roots []*Node
	for _, n := range g.Nodes {
		if n.Hot == HotNone {
			continue
		}
		if keep == nil || keep(n.Hot) {
			roots = append(roots, n)
		}
	}
	return roots
}

// Reach is the result of a reachability query: which nodes the selected
// roots reach, and through which first-discovered call chain.
type Reach struct {
	parent map[*Node]*Edge // discovery edge; nil for roots
	root   map[*Node]*Node // the root that first reached the node
}

// Reachable runs a breadth-first search from the roots selected by keep
// (see Roots). Traversal order is deterministic: roots in ID order,
// edges in (site, callee ID) order, so the recorded chains are stable
// across runs.
func (g *Graph) Reachable(keep func(HotScope) bool) *Reach {
	r := &Reach{
		parent: make(map[*Node]*Edge),
		root:   make(map[*Node]*Node),
	}
	queue := g.Roots(keep)
	for _, n := range queue {
		r.parent[n] = nil
		r.root[n] = n
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if _, seen := r.root[e.Callee]; seen {
				continue
			}
			r.parent[e.Callee] = e
			r.root[e.Callee] = r.root[n]
			queue = append(queue, e.Callee)
		}
	}
	return r
}

// Has reports whether n is reachable from the selected roots.
func (r *Reach) Has(n *Node) bool {
	_, ok := r.root[n]
	return ok
}

// Chain returns the discovery path from n's root to n, inclusive.
func (r *Reach) Chain(n *Node) []*Node {
	if !r.Has(n) {
		return nil
	}
	var rev []*Node
	for cur := n; cur != nil; {
		rev = append(rev, cur)
		e := r.parent[cur]
		if e == nil {
			break
		}
		cur = e.Caller
	}
	chain := make([]*Node, len(rev))
	for i, n := range rev {
		chain[len(rev)-1-i] = n
	}
	return chain
}

// ChainString renders the chain to n as "root -> mid -> n" using short
// node names; hotalloc prints it in every finding.
func (r *Reach) ChainString(n *Node) string {
	chain := r.Chain(n)
	parts := make([]string, len(chain))
	for i, c := range chain {
		parts[i] = c.Name
	}
	return strings.Join(parts, " -> ")
}
