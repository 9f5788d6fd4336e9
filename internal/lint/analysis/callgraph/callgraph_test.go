package callgraph

import (
	"path/filepath"
	"strings"
	"testing"

	"crowdsky/internal/lint/analysis"
	"crowdsky/internal/lint/loader"
)

// testGraph builds a bare Graph from node names and caller->callee pairs,
// in the sorted-node, sorted-edge form the builder guarantees.
func testGraph(t *testing.T, nodes []string, edges [][2]string) *Graph {
	t.Helper()
	g := &Graph{byID: make(map[string]*Node)}
	for _, id := range nodes {
		n := &Node{ID: id, Name: id}
		g.Nodes = append(g.Nodes, n)
		g.byID[id] = n
	}
	for _, e := range edges {
		caller, callee := g.byID[e[0]], g.byID[e[1]]
		if caller == nil || callee == nil {
			t.Fatalf("edge %v names an unknown node", e)
		}
		caller.Out = append(caller.Out, &Edge{Callee: callee, Kind: EdgeStatic})
	}
	return g
}

// sccIDs renders components as "a+b" strings for comparison.
func sccIDs(sccs [][]*Node) []string {
	out := make([]string, len(sccs))
	for i, scc := range sccs {
		ids := make([]string, len(scc))
		for j, n := range scc {
			ids[j] = n.ID
		}
		out[i] = strings.Join(ids, "+")
	}
	return out
}

func TestSCCsCondensationOrder(t *testing.T) {
	cases := []struct {
		name  string
		nodes []string
		edges [][2]string
		// want is the exact bottom-up component sequence; members of a
		// component are listed in ID order joined by "+".
		want []string
	}{
		{
			name:  "chain",
			nodes: []string{"a", "b", "c"},
			edges: [][2]string{{"a", "b"}, {"b", "c"}},
			want:  []string{"c", "b", "a"},
		},
		{
			name:  "self loop is its own component",
			nodes: []string{"a", "b"},
			edges: [][2]string{{"a", "a"}, {"a", "b"}},
			want:  []string{"b", "a"},
		},
		{
			name:  "two-node cycle condenses",
			nodes: []string{"a", "b", "c"},
			edges: [][2]string{{"a", "b"}, {"b", "a"}, {"b", "c"}},
			want:  []string{"c", "a+b"},
		},
		{
			name:  "mutual recursion below a driver",
			nodes: []string{"driver", "even", "odd", "sink"},
			edges: [][2]string{
				{"driver", "even"},
				{"even", "odd"}, {"odd", "even"},
				{"odd", "sink"},
			},
			want: []string{"sink", "even+odd", "driver"},
		},
		{
			name:  "disconnected nodes each form a component",
			nodes: []string{"a", "b"},
			edges: nil,
			want:  []string{"a", "b"},
		},
		{
			name:  "diamond",
			nodes: []string{"top", "l", "r", "bot"},
			edges: [][2]string{{"top", "l"}, {"top", "r"}, {"l", "bot"}, {"r", "bot"}},
			want:  []string{"bot", "l", "r", "top"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := testGraph(t, tc.nodes, tc.edges)
			got := sccIDs(g.SCCs())
			if strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Fatalf("SCCs = %v, want %v", got, tc.want)
			}
			// The defining property, independent of the exact sequence:
			// every cross-component edge points backwards in the order.
			pos := make(map[*Node]int)
			for i, scc := range g.SCCs() {
				for _, n := range scc {
					pos[n] = i
				}
			}
			for _, n := range g.Nodes {
				for _, e := range n.Out {
					if pos[e.Callee] > pos[n] {
						t.Fatalf("callee %s (component %d) ordered after caller %s (component %d)",
							e.Callee.ID, pos[e.Callee], n.ID, pos[n])
					}
				}
			}
		})
	}
}

func TestSCCsDeterministic(t *testing.T) {
	nodes := []string{"a", "b", "c", "d", "e", "f"}
	edges := [][2]string{
		{"a", "b"}, {"b", "c"}, {"c", "a"}, // cycle a-b-c
		{"c", "d"}, {"d", "e"}, {"e", "d"}, // cycle d-e below it
		{"e", "f"},
	}
	g := testGraph(t, nodes, edges)
	first := strings.Join(sccIDs(g.SCCs()), " ")
	for i := 0; i < 50; i++ {
		if got := strings.Join(sccIDs(g.SCCs()), " "); got != first {
			t.Fatalf("run %d: SCCs = %q, want %q", i, got, first)
		}
	}
}

// TestBottomUpFixpoint solves "reaches sink" over a graph with mutual
// recursion: the cycle members must converge to true through the
// component fixpoint, not just via a single pass.
func TestBottomUpFixpoint(t *testing.T) {
	g := testGraph(t,
		[]string{"main", "even", "odd", "sink", "stray"},
		[][2]string{
			{"main", "even"},
			{"even", "odd"}, {"odd", "even"},
			{"odd", "sink"},
		})
	got := g.BottomUp(func(n *Node, get func(*Node) any) any {
		if n.ID == "sink" {
			return true
		}
		for _, e := range n.Out {
			if v, _ := get(e.Callee).(bool); v {
				return true
			}
		}
		return false
	})
	want := map[string]bool{"main": true, "even": true, "odd": true, "sink": true, "stray": false}
	for id, w := range want {
		if v, _ := got[g.byID[id]].(bool); v != w {
			t.Errorf("summary[%s] = %v, want %v", id, v, w)
		}
	}
}

// TestGraphBuildDeterministic loads the lockset fixture twice into
// independent programs and demands byte-identical dumps: node IDs and
// edge order may not depend on map iteration or pointer identity.
func TestGraphBuildDeterministic(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "lockset")
	build := func() string {
		pkgs, err := loader.LoadDirs(filepath.Dir(dir), []string{filepath.Base(dir)})
		if err != nil {
			t.Fatalf("loading fixture: %v", err)
		}
		pkg := pkgs[0]
		pass := &analysis.Pass{
			Analyzer: &analysis.Analyzer{Name: "cgtest"},
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			PkgPath:  pkg.PkgPath,
			Info:     pkg.Info,
		}
		pass.SetProgram(analysis.NewProgram())
		g := Shared(pass).Graph()
		var sb strings.Builder
		g.Dump(&sb)
		return sb.String()
	}
	first := build()
	if first == "" {
		t.Fatal("empty dump")
	}
	for i := 0; i < 3; i++ {
		if got := build(); got != first {
			t.Fatalf("dump differs across builds:\n--- first\n%s\n--- run %d\n%s", first, i, got)
		}
	}
}
