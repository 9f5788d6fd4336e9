package prefgraph

import "testing"

// TestZeroAlloc is the CI gate for the per-answer hot path: recording
// preferences — fresh, re-applied and equality merges — and querying the
// closure must not allocate. Every bit set and the search stack are sized
// at New, the edge arena is pre-sized to n edges and survives Reset, and
// the reverse search walks the arena directly instead of closing over
// state, so a regression here means a closure or append crept back into
// an insertion path.
func TestZeroAlloc(t *testing.T) {
	const n = 512
	g := New(n)
	// Every run rebuilds the graph from Reset, so the equality merge below
	// is measured on every run, not only in the warm-up.
	propagate := func() {
		g.Reset()
		// A long chain maximizes closure propagation per insertion; the last
		// two nodes stay free for the equality merge below.
		for v := 1; v < n-2; v++ {
			g.AddPrefer(v-1, v)
		}
		g.AddPrefer(0, n/2) // re-apply of an already-inferable edge
		// Both sides of the merge get an in-edge, so AddEqual splices two
		// non-empty in-lists and then walks the ancestors of both.
		g.AddPrefer(1, n-2)
		g.AddPrefer(n/3, n-1)
		g.AddEqual(n-2, n-1)
		// The chain's tail joins the merged class: the search updates the
		// chain down from n/3+1 and prunes at n/3, which reaches it already.
		g.AddPrefer(n-3, n-2)
		_ = g.Known(3, n/3)
		_ = g.Prefers(n/3, 3)
		_ = g.WeaklyPrefers(0, n-3)
	}
	if avg := testing.AllocsPerRun(50, propagate); avg != 0 {
		t.Fatalf("propagate allocated %.2f times per run; want 0", avg)
	}
	if g.Edges() != n-3+3 || g.Unions() != 1 || g.Contradictions() != 0 {
		t.Fatalf("edges/unions/contradictions = %d/%d/%d, want %d/1/0",
			g.Edges(), g.Unions(), g.Contradictions(), n-3+3)
	}
	if !g.Prefers(0, n-1) || !g.Prefers(n/3+1, n-1) || g.Known(n-2, n-1) != Equal {
		t.Fatalf("merged class not below the whole chain")
	}
}
