package prefgraph

import (
	"fmt"
	"math/rand"
	"sync"
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

// TestUnionTransition replays a stream across the first merge: in-edges
// are recorded while no class has merged, so their stored sources are
// representatives; AddEqual then absorbs one of those sources, and the
// next AddPrefer raises through the edge whose source is now stale, which
// the search must canonicalize. A second merge absorbs a source one edge
// further along, and the last raise walks through both stale sources.
// testdata/fuzz/FuzzGraph/prefer-merge-prefer holds the same stream.
func TestUnionTransition(t *testing.T) {
	stream := []struct {
		equal bool
		a, b  int
	}{
		{false, 4, 0}, // 4 → 0: 0 gets an ancestor
		{false, 0, 1}, // 0 → 1: stored source 0
		{false, 5, 2}, // 5 → 2: the other side of the merge
		{true, 2, 0},  // 0 joins 2's class; the edge into 1 is now stale
		{false, 1, 3}, // raises 1 → (0 = 2) → {4, 5}
		{false, 3, 6}, // raises through the stale source again, one level up
		{true, 7, 1},  // 1 joins 7's class; the edge into 3 is now stale
		{false, 6, 8}, // raises 6 → 3 → (1 = 7) → (0 = 2) → {4, 5}
	}
	const n = 10
	g, ref := New(n), newRefGraph(n)
	for i, a := range stream {
		if err := ref.step(g, a.equal, a.a, a.b); err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
	}
}

// TestAgainstBruteForceWide compares the graph against the reference on
// 24-word rows, which FuzzGraph's n ≤ 200 never reaches. The answers
// follow a latent two-attribute order (s is preferred over t when it is
// at least as good in both attributes and better in one), so the closure
// rows stay sparse, with runs of zero words between nonzero ones. About
// one answer in 50 is an equality between twins, tuples with the same
// latent point. The all-pairs check runs every 500 answers.
func TestAgainstBruteForceWide(t *testing.T) {
	const n, answers, every = 1500, 4500, 500
	rng := rand.New(rand.NewSource(18))
	x, y := make([]int, n), make([]int, n)
	var twins [][2]int
	for i := range x {
		if i > 0 && rng.Intn(10) == 0 {
			j := rng.Intn(i)
			x[i], y[i] = x[j], y[j]
			twins = append(twins, [2]int{i, j})
			continue
		}
		x[i], y[i] = rng.Intn(1<<20), rng.Intn(1<<20)
	}
	better := func(a, b int) bool {
		return x[a] >= x[b] && y[a] >= y[b] && (x[a] > x[b] || y[a] > y[b])
	}
	g, ref := New(n), newRefGraph(n)
	for k := 1; k <= answers; {
		var a, b int
		equal := rng.Intn(50) == 0
		if equal {
			tw := twins[rng.Intn(len(twins))]
			a, b = tw[0], tw[1]
		} else {
			a, b = rng.Intn(n), rng.Intn(n)
			if better(b, a) {
				a, b = b, a
			}
			if !better(a, b) {
				continue // incomparable or twins: not an answer the order gives
			}
		}
		if err := ref.answer(g, equal, a, b); err != nil {
			t.Fatalf("answer %d: %v", k, err)
		}
		if k%every == 0 {
			if err := ref.check(g); err != nil {
				t.Fatalf("after %d answers: %v", k, err)
			}
		}
		k++
	}
	if g.Unions() == 0 || g.Edges() < answers/2 {
		t.Fatalf("stream too thin: %d edges, %d unions", g.Edges(), g.Unions())
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
// between class representatives and a union–find of its own. Each answer
// is judged by a depth-first search over those edges, and close recomputes
// the full closure from scratch for the all-pairs comparison.
type refGraph struct {
	n      int
	parent []int
	edges  map[[2]int]bool
	succ   [][]int  // the edges as successor lists
	reach  [][]bool // reach[i][j]: representative i strictly preferred over j; current after close

	accepted, unions, contradictions int
}

func newRefGraph(n int) *refGraph {
	r := &refGraph{n: n, parent: make([]int, n), edges: make(map[[2]int]bool),
		succ: make([][]int, n), reach: make([][]bool, n)}
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

// prefers reports whether representative x is strictly preferred over
// representative y: whether y is reachable from x over the edges.
func (r *refGraph) prefers(x, y int) bool {
	seen := make([]bool, r.n)
	stack := []int{x}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range r.succ[v] {
			if s == y {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// close recomputes reach from the edge set: a representative's row is
// the union of its successors and their rows, filled depth-first with
// memoization (the edge set is acyclic, so the recursion terminates).
func (r *refGraph) close() {
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
		for _, s := range r.succ[i] {
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
// what is already known.
func (r *refGraph) apply(equal bool, a, b int) bool {
	ra, rb := r.find(a), r.find(b)
	if equal {
		if ra == rb {
			return true
		}
		if r.prefers(ra, rb) || r.prefers(rb, ra) {
			r.contradictions++
			return false
		}
		r.unions++
		// Union in the reference; redirect edges to the root.
		r.parent[rb] = ra
		redirected := make(map[[2]int]bool, len(r.edges))
		for i := range r.succ {
			r.succ[i] = r.succ[i][:0]
		}
		for e := range r.edges {
			e = [2]int{r.find(e[0]), r.find(e[1])}
			if !redirected[e] {
				redirected[e] = true
				r.succ[e[0]] = append(r.succ[e[0]], e[1])
			}
		}
		r.edges = redirected
		return true
	}
	if ra == rb || r.prefers(rb, ra) {
		r.contradictions++
		return false
	}
	if !r.prefers(ra, rb) {
		r.accepted++
		r.edges[[2]int{ra, rb}] = true
		r.succ[ra] = append(r.succ[ra], rb)
	}
	return true
}

// answer applies one answer to g and to the reference and checks that
// both accept or both reject it.
func (r *refGraph) answer(g *Graph, equal bool, a, b int) error {
	var got bool
	if equal {
		got = g.AddEqual(a, b)
	} else {
		got = g.AddPrefer(a, b)
	}
	if want := r.apply(equal, a, b); got != want {
		return fmt.Errorf("answer (equal=%v, %d, %d) accepted=%v, want %v", equal, a, b, got, want)
	}
	return nil
}

// check recomputes the reference closure and compares the three counters
// and Known over all pairs.
func (r *refGraph) check(g *Graph) error {
	r.close()
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

// step applies one answer to g and to the reference, then checks the
// return value, the three counters and Known over all pairs.
func (r *refGraph) step(g *Graph, equal bool, a, b int) error {
	if err := r.answer(g, equal, a, b); err != nil {
		return err
	}
	return r.check(g)
}

func TestClass(t *testing.T) {
	g := New(6)
	g.AddPrefer(0, 1)
	g.AddPrefer(1, 2)
	g.AddPrefer(3, 4)
	g.AddEqual(2, 5)
	var got []int
	rep, row := g.Class(0)
	for i := 0; i < g.N(); i++ {
		if row.Has(i) {
			got = append(got, i)
		}
	}
	if rep != 0 || len(got) != 2 || got[0] != 1 || got[1] != g.find(2) {
		t.Errorf("Class(0) = %d, %v; want 0, [1 %d]", rep, got, g.find(2))
	}
	if r2, _ := g.Class(2); r2 != g.find(5) {
		t.Errorf("Class(2) rep = %d; want the rep of its class with 5, %d", r2, g.find(5))
	}
	// The Known rule over two classes, on every pair.
	for s := 0; s < g.N(); s++ {
		rs, srow := g.Class(s)
		for u := 0; u < g.N(); u++ {
			ru, urow := g.Class(u)
			want := Unknown
			switch {
			case rs == ru:
				want = Equal
			case srow.Has(ru):
				want = Prefer
			case urow.Has(rs):
				want = Defer
			}
			if got := g.Known(s, u); got != want {
				t.Errorf("Known(%d, %d) = %v; classes give %v", s, u, got, want)
			}
		}
	}
}

// TestConcurrentQueries: between insertions, several goroutines query
// one graph whose classes have merged many times, and each must read
// what the reference reads. Under -race it also proves that queries do
// not write: a lookup that compressed class paths on read would race
// with the other readers. No reader runs before the batch it reads is
// fully inserted, and the graph is not queried in between, so every
// merge's effect is first read concurrently.
func TestConcurrentQueries(t *testing.T) {
	const n, readers, rounds, batch = 64, 4, 5, 60
	rng := rand.New(rand.NewSource(23))
	g, ref := New(n), newRefGraph(n)
	for round := 0; round < rounds; round++ {
		for k := 0; k < batch; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			if err := ref.answer(g, rng.Intn(3) == 0, a, b); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		got := make([][]Relation, readers)
		var wg sync.WaitGroup
		for r := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m := make([]Relation, n*n)
				for k := range m {
					x, y := (k+r*n/readers)%n, k/n
					rel := g.Known(x, y)
					rx, rowX := g.Class(x)
					ry, _ := g.Class(y)
					if g.Prefers(x, y) != (rel == Prefer) || g.WeaklyPrefers(x, y) != (rel == Prefer || rel == Equal) ||
						(rx == ry) != (rel == Equal) || rowX.Has(ry) != (rel == Prefer) {
						rel = -1 // the queries disagree with Known
					}
					m[y*n+x] = rel
				}
				got[r] = m
			}()
		}
		wg.Wait()
		ref.close()
		for r, m := range got {
			for k, rel := range m {
				if want := ref.known(k%n, k/n); rel != want {
					t.Fatalf("round %d, reader %d: relation of (%d,%d) read %v, want %v", round, r, k%n, k/n, rel, want)
				}
			}
		}
	}
	if g.Unions() < 10 {
		t.Fatalf("only %d merges; the test needs classes merged many times", g.Unions())
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

// TestRowsCarvedOnWrite checks that a graph holds rows only for the
// classes written to: after a chain of k preferences only its k sources
// have rows, however many nodes the graph has, on a new graph and on a
// reset one.
func TestRowsCarvedOnWrite(t *testing.T) {
	const n, k = 1000, 100
	g := New(n)
	for pass := 0; pass < 2; pass++ {
		for v := 1; v <= k; v++ {
			g.AddPrefer(v-1, v)
		}
		if carved := carvedRows(g); carved > k+1 {
			t.Fatalf("pass %d: a chain of %d preferences carved %d rows; want at most %d", pass, k, carved, k+1)
		}
		if !g.Prefers(0, k) || g.Comparable(k, k+1) {
			t.Fatalf("pass %d: chain closure wrong", pass)
		}
		g.Reset()
	}
	// Merging two classes without rows carves nothing; the survivor of a
	// merge with a written class gets a row.
	g.AddEqual(k+1, k+2)
	if carved := carvedRows(g); carved != 0 {
		t.Fatalf("merging two empty classes carved %d rows", carved)
	}
	g.AddPrefer(k+3, k+4)
	g.AddEqual(k+2, k+3)
	if carved := carvedRows(g); carved != 2 || !g.Prefers(k+1, k+4) {
		t.Fatalf("after merging into a written class: %d rows carved, Prefers(%d, %d) = %v; want 2, true",
			carved, k+1, k+4, g.Prefers(k+1, k+4))
	}
}

// carvedRows counts the rows g has carved since New or its last Reset.
func carvedRows(g *Graph) int {
	if g.cut == 0 {
		return 0
	}
	w := len(g.zero)
	return (g.cut*min(slabRows, g.n)*w - len(g.spare)) / w
}
