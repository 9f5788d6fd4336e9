// Package prefgraph implements the preference tree T of Section 3.3: an
// incrementally maintained partial order over tuples in the crowd
// attributes, learned one crowd answer at a time.
//
// Each tuple is a node. A strict preference s ≺ t inserts an edge s → t;
// reachability answers "is s preferred over t?" including everything
// inferable by transitivity — the machinery behind pruning P2 (Corollary 2)
// and P3 (Section 3.4). Each class keeps its descendants as a bit-set row,
// so every query is O(1). A row is carved from graph-owned slabs the first
// time it is written; until then the class reads as empty through one
// shared zero row, so a graph holds rows only for the classes a session
// has placed above some other class (about half of them in a Serial
// session). Ancestors are not stored: an insertion finds the
// ones it changes by a pruned reverse search over the answered edges, and
// ORs into each only the nonzero words of the new descendant row (closure
// rows are sparse, so most words are zero). Ternary "equally preferred"
// answers merge nodes into equivalence classes, so a preference recorded
// for either member holds for both. Classes are kept flat: a merge
// relabels every member of the smaller class, so finding a node's class
// is one read and a query never writes. Queries (Known, Prefers,
// WeaklyPrefers, Comparable, Class) are therefore safe for concurrent use
// between insertions; insertions need exclusive access.
//
// Crowds make mistakes (Section 5), so an insertion may contradict what is
// already known (s ≺ t arriving when t ≺ s is recorded or inferable). The
// graph is first-write-wins: the contradicting answer is dropped and
// counted, keeping T acyclic, which mirrors the paper's discussion of
// false-preference propagation.
package prefgraph

import "crowdsky/internal/bitset"

// Relation is the known relationship between an ordered pair of nodes.
type Relation int8

const (
	// Unknown means no preference between the pair is recorded or
	// inferable yet; the tuples are indifferent (s ⊥ t).
	Unknown Relation = iota
	// Prefer means the first node is strictly preferred over the second.
	Prefer
	// Defer means the second node is strictly preferred over the first.
	Defer
	// Equal means the two nodes are equally preferred.
	Equal
)

// String returns a short human-readable form.
func (r Relation) String() string {
	switch r {
	case Unknown:
		return "unknown"
	case Prefer:
		return "prefer"
	case Defer:
		return "defer"
	case Equal:
		return "equal"
	default:
		return "relation?"
	}
}

// Graph is the preference tree T over n nodes. The zero value is unusable;
// call New.
type Graph struct {
	n int
	// rep[x] is the representative of x's equality class. ring links the
	// members of each class into a circular list (ring[x] is the next
	// member after x) and size[r] counts a representative's members, so a
	// merge relabels the smaller class in time linear in its size: every
	// node is relabeled O(log n) times over any sequence of merges.
	rep, ring, size []int32

	// reach[r] for a class representative r: bit set of representatives
	// strictly less preferred than r (descendants). Bits are kept
	// representative-canonical: after a union the surviving representative's
	// bit is added wherever the absorbed one's appears; stale bits of
	// absorbed representatives are never queried because lookups always
	// canonicalize first.
	reach []bitset.Set

	// zero is a shared empty row that is never written: every class reads
	// it until writable carves the class a row of its own, on the first
	// write. Rows are cut from slabs of slabRows rows: slabs[:cut] have
	// been cut from, spare is what is left of slabs[cut-1], and
	// slabs[cut:] were kept, zeroed, by the last Reset.
	zero  bitset.Set
	slabs [][]uint64
	cut   int
	spare []uint64

	// The answered edges, kept so AddPrefer/AddEqual can find a class's
	// ancestors without an ancestor closure: inHead[r] is the first of
	// r's in-edges in arena (-1 for none), chained through next. Sources
	// are stored as they were when the edge was accepted and canonicalized
	// on read. Only edges that added to the closure are recorded.
	inHead []int32
	arena  []inEdge

	// Scratch for the reverse search, sized at New: a node is pushed at
	// most once per search, so n stack slots suffice. seen marks the
	// ancestors a merge has already visited. words holds the indices of
	// the source row's nonzero words, one slot per row word.
	stack []int32
	seen  bitset.Set
	words []int32

	edges          int // accepted strict-preference insertions
	unions         int // accepted equality insertions
	contradictions int // dropped answers that conflicted with T
}

// inEdge is one answered edge src → (the class whose in-list holds it).
type inEdge struct {
	src, next int32
}

// slabRows is the number of rows per slab: a graph allocates its rows
// slabRows at a time and holds at most slabRows-1 spare ones.
const slabRows = 64

// New creates an empty preference graph over nodes 0..n-1. The shared
// zero row and the search's seen row are carved from one allocation, the
// class arrays, the in-list heads and both search scratch slices share
// another, and the n row headers take a third. No descendant row is
// allocated until it is first written, and the edge arena until the
// first edge.
func New(n int) *Graph {
	ints := make([]int32, 5*n+(n+63)/64)
	rows := bitset.Carve(2, n)
	g := &Graph{
		n:      n,
		rep:    ints[:n:n],
		ring:   ints[n : 2*n : 2*n],
		size:   ints[2*n : 3*n : 3*n],
		inHead: ints[3*n : 4*n : 4*n],
		stack:  ints[4*n : 5*n : 5*n],
		words:  ints[5*n:],
		reach:  make([]bitset.Set, n),
		zero:   rows[0],
		seen:   rows[1],
	}
	g.Reset()
	return g
}

// Reset returns the graph to its freshly-built empty state: every node is
// its own class again with an empty row, and the edge arena is truncated.
// It keeps everything the graph has allocated, the slabs zeroed for
// reuse, so a reset graph allocates nothing until it carves more rows or
// records more edges than it did before.
func (g *Graph) Reset() {
	for i := 0; i < g.n; i++ {
		g.rep[i], g.ring[i], g.size[i] = int32(i), int32(i), 1
		g.reach[i] = g.zero
		g.inHead[i] = -1
	}
	for _, s := range g.slabs[:g.cut] {
		clear(s)
	}
	g.cut, g.spare = 0, nil
	g.arena = g.arena[:0]
	g.edges, g.unions, g.contradictions = 0, 0, 0
}

// carved reports whether class r has a row of its own. Only a graph with
// nodes has classes, so the zero row has a first word to compare.
func (g *Graph) carved(r int) bool { return &g.reach[r][0] != &g.zero[0] }

// writable returns class r's row for writing, carving it on the first
// write.
func (g *Graph) writable(r int) bitset.Set {
	if g.carved(r) {
		return g.reach[r]
	}
	if len(g.spare) == 0 {
		if g.cut == len(g.slabs) {
			g.slabs = append(g.slabs, make([]uint64, min(slabRows, g.n)*len(g.zero)))
		}
		g.spare = g.slabs[g.cut]
		g.cut++
	}
	w := len(g.zero)
	g.reach[r] = bitset.Set(g.spare[:w:w])
	g.spare = g.spare[w:]
	return g.reach[r]
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// find returns x's class representative. It only reads.
func (g *Graph) find(x int) int { return int(g.rep[x]) }

// Known returns the recorded-or-inferable relation between s and t.
func (g *Graph) Known(s, t int) Relation {
	rs, rt := g.find(s), g.find(t)
	switch {
	case rs == rt:
		return Equal
	case g.reach[rs].Has(rt):
		return Prefer
	case g.reach[rt].Has(rs):
		return Defer
	default:
		return Unknown
	}
}

// Prefers reports whether s is strictly preferred over t (directly or by
// transitivity).
func (g *Graph) Prefers(s, t int) bool {
	rs, rt := g.find(s), g.find(t)
	return rs != rt && g.reach[rs].Has(rt)
}

// WeaklyPrefers reports s ⪯ t: s strictly preferred over t, or equal.
func (g *Graph) WeaklyPrefers(s, t int) bool {
	rs, rt := g.find(s), g.find(t)
	return rs == rt || g.reach[rs].Has(rt)
}

// Comparable reports whether any relation between s and t is known.
func (g *Graph) Comparable(s, t int) bool { return g.Known(s, t) != Unknown }

// AddPrefer records the crowd answer "s is preferred over t". It returns
// false when the answer contradicts the current graph (t already preferred
// over s); the contradiction is counted and the graph is unchanged. Adding
// an already-known preference is a no-op returning true.
func (g *Graph) AddPrefer(s, t int) bool {
	u, v := g.find(s), g.find(t)
	if u == v || g.reach[v].Has(u) {
		g.contradictions++
		return false
	}
	if g.reach[u].Has(v) {
		return true // already known
	}
	g.edges++
	// The arena doubles as it grows, amortized O(1) per accepted answer, and Reset keeps it.
	g.arena = append(g.arena, inEdge{src: int32(u), next: g.inHead[v]})
	g.inHead[v] = int32(len(g.arena) - 1)
	// v and its descendants become reachable from u and from every
	// ancestor of u that does not reach v yet. u gets a row of its own
	// if it has none; every ancestor already has one, having answered
	// an edge.
	g.writable(u)
	words := g.nonzero(v)
	g.fold(u, v, words)
	g.raise(u, v, words, nil)
	return true
}

// AddEqual records the crowd answer "s and t are equally preferred",
// merging their equivalence classes. It returns false (counting a
// contradiction, graph unchanged) when a strict preference between the two
// is already known.
func (g *Graph) AddEqual(s, t int) bool {
	u, v := g.find(s), g.find(t)
	if u == v {
		return true
	}
	if g.reach[u].Has(v) || g.reach[v].Has(u) {
		g.contradictions++
		return false
	}
	g.unions++
	// Union by size; r survives, and every member of l's class is
	// relabeled to r before the two rings are spliced into one.
	r, l := u, v
	if g.size[r] < g.size[l] {
		r, l = l, r
	}
	for x := l; ; {
		g.rep[x] = int32(r)
		if x = int(g.ring[x]); x == l {
			break
		}
	}
	g.ring[r], g.ring[l] = g.ring[l], g.ring[r]
	g.size[r] += g.size[l]

	// The merged class inherits both descendant sets and both in-lists.
	if g.carved(l) {
		g.writable(r).Or(g.reach[l])
	}
	if h := g.inHead[l]; h >= 0 {
		e := h
		for g.arena[e].next >= 0 {
			e = g.arena[e].next
		}
		g.arena[e].next = g.inHead[r]
		g.inHead[r] = h
		g.inHead[l] = -1
	}
	// Every ancestor of the merged class gains its descendants and r,
	// unconditionally: an ancestor that already saw r still needs the bits
	// just inherited from l, so the search cannot prune and marks visited
	// ancestors in seen instead.
	g.seen.Clear()
	g.seen.Add(r)
	g.raise(r, r, g.nonzero(r), g.seen)
	return true
}

// nonzero writes the indices of reach[v]'s nonzero words into the words
// scratch and returns that prefix. It writes by index rather than
// appending, so the scratch sized at New is never outgrown. A row not
// carved yet has none.
func (g *Graph) nonzero(v int) []int32 {
	if !g.carved(v) {
		return g.words[:0]
	}
	row := g.reach[v]
	words := g.words[:len(row)]
	k := 0
	for w, x := range row {
		words[k] = int32(w) // kept only if x is nonzero: no branch to mispredict
		if x != 0 {
			k++
		}
	}
	return words[:k]
}

// fold ORs reach[v]∪{v} into reach[p], touching only the given words of
// reach[v] (its nonzero ones, from nonzero) and v's own bit. p's row must
// be carved: the source of an answered edge always is, and a merge
// carves the survivor when either class had a row.
func (g *Graph) fold(p, v int, words []int32) {
	dst, src := g.reach[p], g.reach[v]
	for _, w := range words {
		dst[w] |= src[w]
	}
	dst.Add(v)
}

// raise ORs reach[v]∪{v} into the ancestors of class x, found by walking
// answered edges backwards from x. With seen == nil the search is pruned:
// it stops at any predecessor that already reaches v, because by
// transitivity all of that predecessor's ancestors reach v too, so it
// updates exactly the ancestors that do not reach v yet. Otherwise every
// ancestor is visited once, marked in seen.
//
// words lists reach[v]'s nonzero words (from nonzero), and each update
// ORs only those. That is exact because the search never writes reach[v]:
// T is acyclic, so v is not an ancestor of x when v ≠ x, and when v = x
// (a merge) seen marks v before the search starts.
//
// While no class has merged, every stored in-edge source is its own
// class's representative, so the search reads sources directly and only
// canonicalizes them through rep once a union has happened.
//
// The edge walk iterates the arena directly rather than through a
// callback: a closure over (g, v, seen) would be re-created — and
// heap-allocated — on every insertion, on the per-answer hot path.
func (g *Graph) raise(x, v int, words []int32, seen bitset.Set) {
	merged := g.unions != 0
	g.stack[0] = int32(x)
	for top := 1; top > 0; {
		top--
		for e := g.inHead[g.stack[top]]; e >= 0; e = g.arena[e].next {
			p := int(g.arena[e].src)
			if merged {
				p = g.find(p)
			}
			switch {
			case seen == nil:
				if g.reach[p].Has(v) {
					continue
				}
			case seen.Has(p):
				continue
			default:
				seen.Add(p)
			}
			g.fold(p, v, words)
			g.stack[top] = int32(p)
			top++
		}
	}
}

// Edges returns the number of accepted strict-preference insertions.
func (g *Graph) Edges() int { return g.edges }

// Unions returns the number of accepted equality insertions.
func (g *Graph) Unions() int { return g.unions }

// Contradictions returns the number of dropped conflicting answers.
func (g *Graph) Contradictions() int { return g.contradictions }

// Class returns s's equality class as its representative rep and row, the
// bit set of representatives strictly less preferred than the class. For
// classes (r, row) and (q, _), Known reads Equal when r == q, Prefer when
// row has q, and Defer when q's row has r, so a caller comparing one
// member against many resolves it once. row aliases internal storage: it
// must not be modified, and both results hold only until the next
// insertion.
func (g *Graph) Class(s int) (rep int, row bitset.Set) {
	r := g.find(s)
	return r, g.reach[r]
}
