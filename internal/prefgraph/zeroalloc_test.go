package prefgraph

import (
	"runtime"
	"testing"
)

// TestZeroAlloc is the CI gate for the per-answer hot path: recording
// preferences — fresh, re-applied and equality merges — and querying the
// closure must not allocate. The search stack, the seen row and the
// nonzero-word scratch are sized at New; the descendant rows carved on
// first write and the edge arena are kept by Reset, which the measured
// run calls first, so the warm-up leaves every one it needs; and the
// reverse search walks the arena directly instead of closing over state.
// A regression here means a closure or append crept back into an
// insertion path.
func TestZeroAlloc(t *testing.T) {
	const n = 512 // rows of 8 words
	// Two disjoint chains, in words 5 and 7 of a row, under a common
	// ancestor in word 4: the ancestor's row has a zero word between
	// nonzero ones.
	const top, segA, segB, seg = 300, 320, 448, 32
	g := New(n)
	// Every run rebuilds the graph from Reset, so the equality merge below
	// is measured on every run, not only in the warm-up.
	propagate := func() {
		g.Reset()
		// A long chain maximizes closure propagation per insertion.
		for v := 1; v < n/2; v++ {
			g.AddPrefer(v-1, v)
		}
		g.AddPrefer(0, n/4) // re-apply of an already-inferable edge
		for v := 1; v < seg; v++ {
			g.AddPrefer(segA+v-1, segA+v)
			g.AddPrefer(segB+v-1, segB+v)
		}
		g.AddPrefer(top, segA)
		g.AddPrefer(top, segB)
		// The chain's tail joins top: the whole chain gains top's gapped
		// row, folded over its two nonzero words only.
		g.AddPrefer(n/2-1, top)
		// Both sides of the merge get an in-edge, so AddEqual splices two
		// non-empty in-lists and then walks the ancestors of both.
		g.AddPrefer(1, n-2)
		g.AddPrefer(n/3, n-1)
		g.AddEqual(n-2, n-1)
		// The tail of segment B joins the merged class: the search updates
		// B, top and the chain down from n/3+1, and prunes at n/3, which
		// reaches the class already.
		g.AddPrefer(segB+seg-1, n-2)
		_ = g.Known(3, n/3)
		_ = g.Prefers(n/3, 3)
		_ = g.WeaklyPrefers(0, n-3)
	}
	if avg := testing.AllocsPerRun(50, propagate); avg != 0 {
		t.Fatalf("propagate allocated %.2f times per run; want 0", avg)
	}
	const edges = (n/2 - 1) + 2*(seg-1) + 3 + 2 + 1
	if g.Edges() != edges || g.Unions() != 1 || g.Contradictions() != 0 {
		t.Fatalf("edges/unions/contradictions = %d/%d/%d, want %d/1/0",
			g.Edges(), g.Unions(), g.Contradictions(), edges)
	}
	if _, row := g.Class(top); row[5] == 0 || row[6] != 0 || row[7] == 0 {
		t.Fatalf("top's row words 5..7 = %#x %#x %#x, want nonzero, zero, nonzero", row[5], row[6], row[7])
	}
	if !g.Prefers(0, segA+seg-1) || !g.Prefers(0, segB+seg-1) || g.Comparable(segA, segB) {
		t.Fatalf("chain not above both segments")
	}
	if !g.Prefers(0, n-1) || !g.Prefers(n/3+1, n-1) || g.Known(n-2, n-1) != Equal {
		t.Fatalf("merged class not below the whole chain")
	}
}

// TestNewAllocBudget gates what an empty graph costs: New(20000) must
// allocate under 1 MiB, its O(n) class arrays and row headers.
// Allocating every descendant row up front instead takes 50 MB.
func TestNewAllocBudget(t *testing.T) {
	const n, budget = 20000, 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := New(n)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
		t.Fatalf("New(%d) allocated %d bytes; want under %d", n, got, budget)
	}
	if g.N() != n {
		t.Fatalf("N() = %d, want %d", g.N(), n)
	}
}
