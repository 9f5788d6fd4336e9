package prefgraph

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBasicRelations(t *testing.T) {
	g := New(4)
	if g.N() != 4 {
		t.Fatalf("N = %d", g.N())
	}
	if g.Known(0, 1) != Unknown {
		t.Errorf("fresh graph knows something")
	}
	if !g.AddPrefer(0, 1) {
		t.Fatalf("AddPrefer rejected")
	}
	if g.Known(0, 1) != Prefer || g.Known(1, 0) != Defer {
		t.Errorf("direct edge not recorded")
	}
	if !g.Prefers(0, 1) || g.Prefers(1, 0) {
		t.Errorf("Prefers wrong")
	}
	if !g.WeaklyPrefers(0, 1) || g.WeaklyPrefers(1, 0) {
		t.Errorf("WeaklyPrefers wrong")
	}
	if !g.Comparable(0, 1) || g.Comparable(0, 2) {
		t.Errorf("Comparable wrong")
	}
}

func TestTransitivity(t *testing.T) {
	g := New(5)
	g.AddPrefer(0, 1)
	g.AddPrefer(1, 2)
	g.AddPrefer(2, 3)
	if !g.Prefers(0, 3) {
		t.Errorf("transitive chain not inferred")
	}
	if g.Prefers(3, 0) || g.Comparable(0, 4) {
		t.Errorf("phantom relations")
	}
	// Adding an already-inferable edge is a no-op success.
	edges := g.Edges()
	if !g.AddPrefer(0, 2) {
		t.Errorf("re-adding inferable edge rejected")
	}
	if g.Edges() != edges {
		t.Errorf("inferable edge counted as new")
	}
}

func TestContradictions(t *testing.T) {
	g := New(3)
	g.AddPrefer(0, 1)
	g.AddPrefer(1, 2)
	if g.AddPrefer(2, 0) {
		t.Errorf("cycle-closing edge accepted")
	}
	if g.Contradictions() != 1 {
		t.Errorf("contradictions = %d, want 1", g.Contradictions())
	}
	// Graph unchanged: 0 still preferred over 2.
	if !g.Prefers(0, 2) {
		t.Errorf("contradiction mutated the graph")
	}
	if g.AddEqual(0, 2) {
		t.Errorf("equality over a strict preference accepted")
	}
	if g.Contradictions() != 2 {
		t.Errorf("contradictions = %d, want 2", g.Contradictions())
	}
}

func TestEqualityClasses(t *testing.T) {
	g := New(6)
	if !g.AddEqual(0, 1) {
		t.Fatalf("AddEqual rejected")
	}
	if g.Known(0, 1) != Equal || g.Known(1, 0) != Equal {
		t.Errorf("equality not recorded")
	}
	if !g.WeaklyPrefers(0, 1) || g.Prefers(0, 1) {
		t.Errorf("equality semantics wrong")
	}
	// Preferences transfer across the class.
	g.AddPrefer(1, 2)
	if !g.Prefers(0, 2) {
		t.Errorf("class member preference not shared")
	}
	g.AddPrefer(3, 0)
	if !g.Prefers(3, 1) {
		t.Errorf("incoming preference not shared")
	}
	// Merging classes with existing relations keeps transitivity.
	g.AddEqual(4, 5)
	g.AddPrefer(2, 4)
	if !g.Prefers(0, 5) || !g.Prefers(3, 5) {
		t.Errorf("closure across merged classes broken")
	}
	if g.Unions() != 2 {
		t.Errorf("unions = %d, want 2", g.Unions())
	}
	// Self-equality is trivially true.
	if !g.AddEqual(2, 2) {
		t.Errorf("self equality rejected")
	}
}

func TestEqualityMergeClosesOverBothSides(t *testing.T) {
	g := New(6)
	g.AddPrefer(0, 1) // 0 > 1
	g.AddPrefer(2, 3) // 2 > 3
	g.AddEqual(1, 2)  // merge middle
	if !g.Prefers(0, 3) {
		t.Errorf("0 > 1 = 2 > 3 should imply 0 > 3")
	}
	if !g.Prefers(0, 2) || !g.Prefers(1, 3) {
		t.Errorf("class-adjacent preferences missing")
	}
}

// TestAgainstBruteForce compares the incremental closure against the
// brute-force reference on random answer sequences.
func TestAgainstBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 12
		g, ref := New(n), newRefGraph(n)
		for step := 0; step < 60; step++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			if err := ref.step(g, rng.Intn(4) == 0, a, b); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// FuzzGraph drives Graph and the brute-force reference with the same
// answer stream and checks them against each other after every answer.
// The first byte picks n in [2, 200], so closure rows span up to four
// words. Each further 3-byte group is one answer: bit 0 of the first byte
// makes it an equality, bit 1 orients a preference from the lower index to
// the higher (a stream consistent with a hidden order, which builds deep
// chains rather than contradictions), and the next two bytes pick the
// tuples.
func FuzzGraph(f *testing.F) {
	f.Add([]byte{11, 0, 1, 2, 1, 2, 3, 2, 0, 3, 3, 1, 3})
	f.Add([]byte{198, 2, 0, 1, 2, 1, 2, 2, 2, 3, 2, 70, 130, 2, 190, 64, 1, 64, 130, 0, 199, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0])%199
		g, ref := New(n), newRefGraph(n)
		for k := 1; k+2 < len(data); k += 3 {
			op, a, b := data[k], int(data[k+1])%n, int(data[k+2])%n
			if op&2 != 0 && a > b {
				a, b = b, a
			}
			if err := ref.step(g, op&1 != 0, a, b); err != nil {
				t.Fatalf("n=%d answer %d: %v", n, k/3, err)
			}
		}
	})
}

// refGraph is the brute-force reference for Graph: the accepted edges
// between class representatives and a union–find of its own, with the
// closure recomputed from scratch after every answer.
type refGraph struct {
	n      int
	parent []int
	edges  map[[2]int]bool
	reach  [][]bool // reach[i][j]: representative i strictly preferred over j

	accepted, unions, contradictions int
}

func newRefGraph(n int) *refGraph {
	r := &refGraph{n: n, parent: make([]int, n), edges: make(map[[2]int]bool), reach: make([][]bool, n)}
	for i := range r.parent {
		r.parent[i] = i
		r.reach[i] = make([]bool, n)
	}
	return r
}

func (r *refGraph) find(x int) int {
	for r.parent[x] != x {
		x = r.parent[x]
	}
	return x
}

// close recomputes reach from the edge set: a representative's row is
// the union of its successors and their rows, filled depth-first with
// memoization (the edge set is acyclic, so the recursion terminates).
func (r *refGraph) close() {
	succ := make([][]int, r.n)
	for e := range r.edges {
		succ[e[0]] = append(succ[e[0]], e[1])
	}
	done := make([]bool, r.n)
	var fill func(i int)
	fill = func(i int) {
		if done[i] {
			return
		}
		done[i] = true
		row := r.reach[i]
		for j := range row {
			row[j] = false
		}
		for _, s := range succ[i] {
			fill(s)
			row[s] = true
			for j, ok := range r.reach[s] {
				row[j] = row[j] || ok
			}
		}
	}
	for i := 0; i < r.n; i++ {
		fill(i)
	}
}

func (r *refGraph) known(x, y int) Relation {
	rx, ry := r.find(x), r.find(y)
	switch {
	case rx == ry:
		return Equal
	case r.reach[rx][ry]:
		return Prefer
	case r.reach[ry][rx]:
		return Defer
	default:
		return Unknown
	}
}

// apply records one answer and reports whether it is consistent with
// what is already known. reach must be current.
func (r *refGraph) apply(equal bool, a, b int) bool {
	ra, rb := r.find(a), r.find(b)
	if equal {
		if ra == rb {
			return true
		}
		if r.reach[ra][rb] || r.reach[rb][ra] {
			r.contradictions++
			return false
		}
		r.unions++
		// Union in the reference; redirect edges to the root.
		r.parent[rb] = ra
		redirected := make(map[[2]int]bool, len(r.edges))
		for e := range r.edges {
			redirected[[2]int{r.find(e[0]), r.find(e[1])}] = true
		}
		r.edges = redirected
		return true
	}
	if ra == rb || r.reach[rb][ra] {
		r.contradictions++
		return false
	}
	if !r.reach[ra][rb] {
		r.accepted++
		r.edges[[2]int{ra, rb}] = true
	}
	return true
}

// step applies one answer to g and to the reference, then checks the
// return value, the three counters and Known over all pairs.
func (r *refGraph) step(g *Graph, equal bool, a, b int) error {
	var got bool
	if equal {
		got = g.AddEqual(a, b)
	} else {
		got = g.AddPrefer(a, b)
	}
	want := r.apply(equal, a, b)
	r.close()
	if got != want {
		return fmt.Errorf("answer (equal=%v, %d, %d) accepted=%v, want %v", equal, a, b, got, want)
	}
	if g.Edges() != r.accepted || g.Unions() != r.unions || g.Contradictions() != r.contradictions {
		return fmt.Errorf("counters edges/unions/contradictions = %d/%d/%d, want %d/%d/%d",
			g.Edges(), g.Unions(), g.Contradictions(), r.accepted, r.unions, r.contradictions)
	}
	for x := 0; x < r.n; x++ {
		for y := 0; y < r.n; y++ {
			if got, want := g.Known(x, y), r.known(x, y); got != want {
				return fmt.Errorf("Known(%d,%d) = %v, want %v", x, y, got, want)
			}
		}
	}
	return nil
}

func TestPreferredSet(t *testing.T) {
	g := New(5)
	g.AddPrefer(0, 1)
	g.AddPrefer(1, 2)
	g.AddPrefer(3, 4)
	var got []int
	g.PreferredSet(0).ForEach(func(i int) { got = append(got, i) })
	sort.Ints(got)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("PreferredSet(0) = %v, want [1 2]", got)
	}
}

func TestRelationString(t *testing.T) {
	if Unknown.String() != "unknown" || Prefer.String() != "prefer" ||
		Defer.String() != "defer" || Equal.String() != "equal" {
		t.Errorf("relation names wrong")
	}
	if Relation(9).String() != "relation?" {
		t.Errorf("out-of-range relation name")
	}
}

// TestReset proves a Reset graph is indistinguishable from a fresh one:
// same empty state, and the same answers after replaying a different
// insertion sequence into both.
func TestReset(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(9))
	reused := New(n)
	for step := 0; step < 200; step++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if rng.Intn(4) == 0 {
			reused.AddEqual(a, b)
		} else {
			reused.AddPrefer(a, b)
		}
	}
	reused.Reset()
	if reused.Edges() != 0 || reused.Unions() != 0 || reused.Contradictions() != 0 {
		t.Fatalf("Reset left counters: %d edges, %d unions, %d contradictions",
			reused.Edges(), reused.Unions(), reused.Contradictions())
	}
	fresh := New(n)
	for step := 0; step < 200; step++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		var okR, okF bool
		if rng.Intn(4) == 0 {
			okR, okF = reused.AddEqual(a, b), fresh.AddEqual(a, b)
		} else {
			okR, okF = reused.AddPrefer(a, b), fresh.AddPrefer(a, b)
		}
		if okR != okF {
			t.Fatalf("step %d: reset graph accepted=%v, fresh graph accepted=%v", step, okR, okF)
		}
	}
	for s := 0; s < n; s++ {
		for u := 0; u < n; u++ {
			if reused.Known(s, u) != fresh.Known(s, u) {
				t.Fatalf("Known(%d,%d) differs between reset and fresh graph", s, u)
			}
		}
	}
	if reused.Edges() != fresh.Edges() || reused.Unions() != fresh.Unions() ||
		reused.Contradictions() != fresh.Contradictions() {
		t.Fatalf("counters differ between reset and fresh graph")
	}
}
