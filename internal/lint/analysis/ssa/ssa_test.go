package ssa

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// buildSrc type-checks src (one file, package p) and returns SSA for
// the function named name.
func buildSrc(t *testing.T, src, name string) (*Func, *types.Info, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			f := BuildFunc(fd, info)
			if err := f.Verify(); err != nil {
				t.Fatalf("Verify(%s): %v", name, err)
			}
			return f, info, fset
		}
	}
	t.Fatalf("no function %q in source", name)
	return nil, nil, nil
}

func TestDomDiamond(t *testing.T) {
	f, _, _ := buildSrc(t, `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	} else {
		x = 3
	}
	return x
}`, "f")
	d := f.Dom
	// The entry dominates everything reachable.
	for _, b := range f.Graph.Blocks {
		if d.Reachable[b.Index] && !d.Dominates(f.Graph.Entry.Index, b.Index) {
			t.Errorf("entry should dominate block %d", b.Index)
		}
	}
	// then/else blocks do not dominate the join.
	var thenIdx, joinIdx = -1, -1
	for _, b := range f.Graph.Blocks {
		switch b.Kind {
		case "if.then":
			thenIdx = b.Index
		case "if.join":
			joinIdx = b.Index
		}
	}
	if thenIdx == -1 || joinIdx == -1 {
		t.Fatalf("missing blocks: then=%d join=%d", thenIdx, joinIdx)
	}
	if d.Dominates(thenIdx, joinIdx) {
		t.Errorf("if.then must not dominate if.join")
	}
	// The join is in the then-block's dominance frontier.
	found := false
	for _, fr := range d.Frontier[thenIdx] {
		if fr == joinIdx {
			found = true
		}
	}
	if !found {
		t.Errorf("if.join not in if.then's dominance frontier: %v", d.Frontier[thenIdx])
	}
}

func TestDomLoop(t *testing.T) {
	f, _, _ := buildSrc(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`, "f")
	d := f.Dom
	var head = -1
	for _, b := range f.Graph.Blocks {
		if b.Kind == "for.head" {
			head = b.Index
		}
	}
	if head == -1 {
		t.Fatal("no for.head block")
	}
	// A loop head is its own frontier (the back edge).
	found := false
	for _, fr := range d.Frontier[head] {
		if fr == head {
			found = true
		}
	}
	if !found {
		t.Errorf("for.head should be in its own dominance frontier, got %v", d.Frontier[head])
	}
}

func TestPhiPlacement(t *testing.T) {
	f, _, _ := buildSrc(t, `package p
func f(c bool) int {
	x := 1
	y := 9
	if c {
		x = 2
	}
	_ = y
	return x
}`, "f")
	// x is live at the join and assigned on one arm: exactly one phi for
	// x at the if.join; y is never reassigned: no phi anywhere.
	var phis []*Value
	for _, vs := range f.Phis {
		phis = append(phis, vs...)
	}
	if len(phis) != 1 {
		t.Fatalf("want exactly 1 phi (for x), got %d", len(phis))
	}
	if phis[0].Var == nil || phis[0].Var.Name != "x" {
		t.Errorf("phi is for %v, want x", phis[0].Var)
	}
	if len(phis[0].Args) != 2 {
		t.Errorf("phi arity = %d, want 2", len(phis[0].Args))
	}
}

func TestLoopPhi(t *testing.T) {
	f, _, _ := buildSrc(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`, "f")
	// s and i both need phis at the loop head. n may legitimately get one
	// too: the `i < n` branch refines n with a pi in the loop body, which
	// counts as a definition rejoining at the head.
	have := map[string]bool{}
	for blk, vs := range f.Phis {
		if f.Graph.Blocks[blk].Kind == "for.head" {
			for _, phi := range vs {
				have[phi.Var.Name] = true
			}
		}
	}
	if !have["s"] || !have["i"] {
		t.Errorf("loop-head phis = %v, want at least s and i", have)
	}
}

func TestPiRefinement(t *testing.T) {
	f, info, _ := buildSrc(t, `package p
func f(p *int) int {
	if p != nil {
		return *p
	}
	return 0
}`, "f")
	// The use of p inside the then-block must resolve to a pi value
	// refined by != nil.
	var deref *ast.StarExpr
	for e := range f.ValueOf {
		if s, ok := e.(*ast.StarExpr); ok {
			deref = s
		}
	}
	if deref == nil {
		t.Fatal("no *p value recorded")
	}
	pv := f.ValueOf[deref.X]
	if pv == nil || pv.Kind != KPi {
		t.Fatalf("value of p inside guard = %v, want a pi node", pv)
	}
	if pv.Refine == nil || pv.Refine.Op != token.NEQ || !pv.Refine.Y.IsNil {
		t.Errorf("pi refinement = %+v, want != nil", pv.Refine)
	}
	_ = info
}

func TestPiOnElseBranch(t *testing.T) {
	f, _, _ := buildSrc(t, `package p
func f(p *int) *int {
	if p == nil {
		return nil
	}
	return p
}`, "f")
	// After the early return, p is refined non-nil on the fallthrough.
	facts := Problem[Nilness]{
		Join:   JoinNilness,
		Refine: RefineNilness,
		Transfer: func(v *Value, get func(*Value) Nilness) Nilness {
			switch v.Kind {
			case KConst:
				if v.IsNil {
					return NilBit
				}
				return NonNilBit
			case KParam, KUndef:
				return UnknownBit
			default:
				return UnknownBit
			}
		},
	}.Solve(f)
	// The final return's value must be proven non-nil.
	var last *ast.ReturnStmt
	lastPos := token.NoPos
	for rs := range f.ReturnVals {
		if rs.Pos() > lastPos {
			lastPos = rs.Pos()
			last = rs
		}
	}
	if last == nil {
		t.Fatal("no return statements recorded")
	}
	vals := f.ReturnVals[last]
	if len(vals) != 1 {
		t.Fatalf("return vals = %d, want 1", len(vals))
	}
	if got := facts[vals[0].ID]; got != NonNilBit {
		t.Errorf("nilness of `return p` after nil-check = %v, want NonNilBit", got)
	}
}

func TestFieldPathGuard(t *testing.T) {
	f, _, _ := buildSrc(t, `package p
type T struct{ q *int }
func f(t *T) int {
	if t.q != nil {
		return *t.q
	}
	return 0
}`, "f")
	// t.q is tracked as a path var because it is nil-compared.
	foundPath := false
	for _, vi := range f.Vars {
		if vi.Path == ".q" {
			foundPath = true
		}
	}
	if !foundPath {
		t.Fatalf("t.q not tracked; vars: %+v", f.Vars)
	}
	var deref *ast.StarExpr
	for e := range f.ValueOf {
		if s, ok := e.(*ast.StarExpr); ok {
			deref = s
		}
	}
	if deref == nil {
		t.Fatal("no *t.q value")
	}
	pv := f.ValueOf[deref.X]
	if pv == nil || pv.Kind != KPi {
		t.Fatalf("value of t.q inside guard = %+v, want a pi node", pv)
	}
}

func TestOutParamDefines(t *testing.T) {
	f, _, _ := buildSrc(t, `package p
func g(p *int) {}
func f() int {
	var x int
	g(&x)
	return x
}`, "f")
	var ret *ast.ReturnStmt
	for rs := range f.ReturnVals {
		ret = rs
	}
	if ret == nil {
		t.Fatal("no return recorded")
	}
	v := f.ReturnVals[ret][0]
	if v.Kind != KOutDef {
		t.Errorf("x after g(&x) has kind %v, want outdef", v.Kind)
	}
}

func TestAddressTakenUntracked(t *testing.T) {
	f, _, _ := buildSrc(t, `package p
func f() *int {
	var x int
	p := &x
	return p
}`, "f")
	for _, vi := range f.Vars {
		if vi.Name == "x" {
			t.Errorf("x is address-taken outside a call; must not be tracked")
		}
	}
	_ = f
}

func TestClosureCaptureUntracked(t *testing.T) {
	f, _, _ := buildSrc(t, `package p
func f() int {
	x := 1
	g := func() { x = 2 }
	g()
	return x
}`, "f")
	for _, vi := range f.Vars {
		if vi.Name == "x" {
			t.Errorf("x is closure-captured; must not be tracked")
		}
	}
}

func TestGotoSelfLoopVerifies(t *testing.T) {
	// A self-looping label block: phi args can come from the same block;
	// the verifier must accept it.
	buildSrc(t, `package p
func f(n int) {
	i := 0
loop:
	i++
	if i < n {
		goto loop
	}
}`, "f")
}

func TestRangeAndSwitchShapes(t *testing.T) {
	buildSrc(t, `package p
func f(xs []int, m map[string]int) int {
	s := 0
	for i, v := range xs {
		s += i + v
	}
	for k := range m {
		_ = k
	}
	switch s {
	case 0:
		s = 1
	case 1, 2:
		s = 3
		fallthrough
	default:
		s++
	}
	var x interface{} = s
	switch x.(type) {
	case int:
		s = 9
	}
	return s
}`, "f")
}

func TestDeferAndSelect(t *testing.T) {
	buildSrc(t, `package p
import "sync"
func f(ch chan int, mu *sync.Mutex) int {
	mu.Lock()
	defer mu.Unlock()
	select {
	case v := <-ch:
		return v
	default:
		return 0
	}
}`, "f")
}

func TestBuildLit(t *testing.T) {
	src := `package p
func f() func() int {
	x := 1
	return func() int { return x + 1 }
}`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "src.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatal(err)
	}
	var lit *ast.FuncLit
	ast.Inspect(file, func(n ast.Node) bool {
		if l, ok := n.(*ast.FuncLit); ok {
			lit = l
		}
		return true
	})
	f := BuildLit(lit, info)
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify(lit): %v", err)
	}
	// x is free in the literal: it must be opaque, not tracked.
	for _, vi := range f.Vars {
		if vi.Name == "x" {
			t.Error("free variable x tracked inside literal")
		}
	}
}

func TestDeterministicBuild(t *testing.T) {
	src := `package p
func f(a, b int, c bool) int {
	x := a
	for i := 0; i < b; i++ {
		if c {
			x += i
		} else {
			x -= i
		}
	}
	return x
}`
	sig := func() string {
		f, _, _ := buildSrc(t, src, "f")
		var sb strings.Builder
		for _, v := range f.Values {
			fmt.Fprintf(&sb, "v%d:%v:b%d:%d;", v.ID, v.Kind, v.Block, len(v.Args))
		}
		return sb.String()
	}
	first := sig()
	for i := 0; i < 5; i++ {
		if got := sig(); got != first {
			t.Fatalf("build %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func TestVerifyCatchesBrokenPhi(t *testing.T) {
	f, _, _ := buildSrc(t, `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	}
	return x
}`, "f")
	var phi *Value
	for _, vs := range f.Phis {
		for _, p := range vs {
			phi = p
		}
	}
	if phi == nil {
		t.Fatal("no phi to break")
	}
	phi.Args = phi.Args[:len(phi.Args)-1]
	if err := f.Verify(); err == nil {
		t.Error("Verify accepted a phi with wrong arity")
	}
}

var benchSink *Func

func BenchmarkBuild(b *testing.B) {
	src := `package p
func f(a, b int, c bool) int {
	x := a
	for i := 0; i < b; i++ {
		if c && x > 0 {
			x += i
		} else {
			x -= i
		}
	}
	return x
}`
	fset := token.NewFileSet()
	file, _ := parser.ParseFile(fset, "src.go", src, 0)
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		b.Fatal(err)
	}
	var fd *ast.FuncDecl
	for _, d := range file.Decls {
		fd, _ = d.(*ast.FuncDecl)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = BuildFunc(fd, info)
	}
}
