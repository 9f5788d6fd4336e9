package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parse builds the CFG of the first function declaration in src.
func parse(t *testing.T, src string) (*Graph, *ast.FuncDecl) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "t.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return New(fd.Body), fd
		}
	}
	t.Fatal("no function in src")
	return nil, nil
}

// exitReachable reports whether the exit block is reachable from entry.
func exitReachable(g *Graph) bool {
	return g.Reachable(nil)[g.Exit.Index]
}

// calls returns a stop predicate that holds on blocks containing a call
// to the ident name.
func calls(name string) func(b *Block) bool {
	return func(b *Block) bool {
		found := false
		for _, n := range b.Nodes {
			ast.Inspect(n, func(x ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
						found = true
					}
				}
				return !found
			})
		}
		return found
	}
}

// blockCalling returns the block containing a call to name.
func blockCalling(t *testing.T, g *Graph, name string) *Block {
	t.Helper()
	for _, b := range g.Blocks {
		if calls(name)(b) {
			return b
		}
	}
	t.Fatalf("no block calls %s", name)
	return nil
}

// guaranteed reports whether every path from entry to b calls name
// before reaching b.
func guaranteed(g *Graph, name string, b *Block) bool {
	return !g.Reachable(calls(name))[b.Index]
}

// callsInLiveBlocks collects the callee names of all CallExprs in blocks
// reachable from entry.
func callsInLiveBlocks(g *Graph) map[string]bool {
	live := g.Reachable(nil)
	out := make(map[string]bool)
	for _, b := range g.Blocks {
		if !live[b.Index] {
			continue
		}
		for _, n := range b.Nodes {
			ast.Inspect(n, func(x ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok {
						out[id.Name] = true
					}
				}
				return true
			})
		}
	}
	return out
}

func TestIfElseJoins(t *testing.T) {
	g, _ := parse(t, `func f(c bool) {
		if c { a() } else { b() }
		after()
	}`)
	if !exitReachable(g) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
	calls := callsInLiveBlocks(g)
	for _, want := range []string{"a", "b", "after"} {
		if !calls[want] {
			t.Errorf("call %s not in a live block:\n%s", want, g)
		}
	}
}

func TestIfWithoutElseFallsThrough(t *testing.T) {
	g, _ := parse(t, `func f(c bool) {
		if c { return }
		after()
	}`)
	if !exitReachable(g) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
	if !callsInLiveBlocks(g)["after"] {
		t.Errorf("after() unreachable:\n%s", g)
	}
}

func TestForCondLoop(t *testing.T) {
	g, _ := parse(t, `func f(n int) {
		for i := 0; i < n; i++ { body() }
		after()
	}`)
	if !exitReachable(g) {
		t.Fatalf("exit unreachable (cond loop can run zero times):\n%s", g)
	}
	calls := callsInLiveBlocks(g)
	if !calls["body"] || !calls["after"] {
		t.Errorf("missing live calls: %v\n%s", calls, g)
	}
}

func TestInfiniteForHasNoExit(t *testing.T) {
	g, _ := parse(t, `func f() {
		for { body() }
	}`)
	if exitReachable(g) {
		t.Fatalf("for{} must not reach exit:\n%s", g)
	}
}

func TestInfiniteForWithBreakExits(t *testing.T) {
	g, _ := parse(t, `func f(c bool) {
		for {
			if c { break }
		}
		after()
	}`)
	if !exitReachable(g) {
		t.Fatalf("break must make exit reachable:\n%s", g)
	}
	if !callsInLiveBlocks(g)["after"] {
		t.Errorf("after() unreachable:\n%s", g)
	}
}

func TestLabeledBreakEscapesNestedLoop(t *testing.T) {
	g, _ := parse(t, `func f(c bool) {
	outer:
		for {
			for {
				if c { break outer }
			}
		}
		after()
	}`)
	if !exitReachable(g) {
		t.Fatalf("labeled break must make exit reachable:\n%s", g)
	}
}

func TestRangeZeroIterations(t *testing.T) {
	g, _ := parse(t, `func f(xs []int) {
		for range xs { body() }
		after()
	}`)
	if !exitReachable(g) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
}

func TestSwitchDefaultAndFallthrough(t *testing.T) {
	g, _ := parse(t, `func f(x int) {
		switch x {
		case 1:
			one()
			fallthrough
		case 2:
			two()
		default:
			other()
		}
		after()
	}`)
	calls := callsInLiveBlocks(g)
	for _, want := range []string{"one", "two", "other", "after"} {
		if !calls[want] {
			t.Errorf("call %s not live: %v\n%s", want, calls, g)
		}
	}
	// With a default clause, the switch head must NOT edge straight to the
	// join: some clause always runs.
	g2, _ := parse(t, `func f(x int) {
		switch x {
		default:
			return
		}
		after()
	}`)
	if calls2 := callsInLiveBlocks(g2); calls2["after"] {
		t.Errorf("after() live despite always-returning default:\n%s", g2)
	}
}

func TestSwitchWithoutDefaultFallsThrough(t *testing.T) {
	g, _ := parse(t, `func f(x int) {
		switch x {
		case 1:
			return
		}
		after()
	}`)
	if !callsInLiveBlocks(g)["after"] {
		t.Errorf("switch without default must fall through:\n%s", g)
	}
}

func TestGotoJoinsLabel(t *testing.T) {
	g, _ := parse(t, `func f(c bool) {
		if c { goto done }
		work()
	done:
		after()
	}`)
	calls := callsInLiveBlocks(g)
	if !calls["work"] || !calls["after"] {
		t.Errorf("missing live calls: %v\n%s", calls, g)
	}
	if !exitReachable(g) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
}

func TestGotoBackwardLoop(t *testing.T) {
	g, _ := parse(t, `func f(c bool) {
	again:
		work()
		if c { goto again }
	}`)
	if !exitReachable(g) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
}

func TestDeferCollectedAndInBlock(t *testing.T) {
	g, _ := parse(t, `func f() {
		defer cleanup()
		work()
	}`)
	if len(g.Defers) != 1 {
		t.Fatalf("Defers = %d, want 1", len(g.Defers))
	}
	if !callsInLiveBlocks(g)["cleanup"] {
		t.Errorf("defer's call not recorded in its block:\n%s", g)
	}
}

func TestPanicEndsPath(t *testing.T) {
	g, _ := parse(t, `func f(c bool) {
		if !c {
			panic("boom")
		}
		after()
	}`)
	if !callsInLiveBlocks(g)["after"] {
		t.Errorf("after() must stay live on the non-panic path:\n%s", g)
	}
	g2, _ := parse(t, `func f() {
		panic("always")
	}`)
	if exitReachable(g2) {
		t.Errorf("unconditional panic must not reach exit:\n%s", g2)
	}
}

func TestOsExitEndsPath(t *testing.T) {
	g, _ := parse(t, `func f() {
		os.Exit(1)
	}`)
	if exitReachable(g) {
		t.Errorf("os.Exit must not reach exit:\n%s", g)
	}
}

func TestSelectCasesJoin(t *testing.T) {
	g, _ := parse(t, `func f(a, b chan int) {
		select {
		case <-a:
			one()
		case <-b:
			return
		}
		after()
	}`)
	calls := callsInLiveBlocks(g)
	if !calls["one"] || !calls["after"] {
		t.Errorf("missing live calls: %v\n%s", calls, g)
	}
}

func TestForSelectWithoutExitUnreachable(t *testing.T) {
	g, _ := parse(t, `func f(a chan int) {
		for {
			select {
			case <-a:
				handle()
			}
		}
	}`)
	if exitReachable(g) {
		t.Fatalf("for-select with no exit must not reach exit:\n%s", g)
	}
	g2, _ := parse(t, `func f(a, done chan int) {
		for {
			select {
			case <-a:
				handle()
			case <-done:
				return
			}
		}
	}`)
	if !exitReachable(g2) {
		t.Fatalf("returning select case must reach exit:\n%s", g2)
	}
}

// TestMustDataflowCancelCoverage runs the path query on the shape ctxleak
// cares about: is cancel called on every path to exit? The call on only
// one branch is not a guarantee; a defer right after creation is.
func TestMustDataflowCancelCoverage(t *testing.T) {
	run := func(src string) bool {
		g, _ := parse(t, src)
		return guaranteed(g, "cancel", g.Exit)
	}

	if run(`func f(c bool) {
		if c { cancel() }
	}`) {
		t.Errorf("cancel on one branch must not be a guarantee at exit")
	}
	if !run(`func f(c bool) {
		defer cancel()
		if c { return }
		work()
	}`) {
		t.Errorf("defer cancel() must guarantee the call at exit")
	}
	if !run(`func f(c bool) {
		if c {
			cancel()
			return
		}
		cancel()
	}`) {
		t.Errorf("cancel on every path must be a guarantee at exit")
	}
}

// TestDataflowIrreducibleLoop runs the path query over a loop with two
// entry points (goto into the middle of a cycle), the shape
// structured-loop-only solvers get wrong. pre dominates everything; onA
// is on only one of the two paths into B.
func TestDataflowIrreducibleLoop(t *testing.T) {
	g, _ := parse(t, `func f(c bool) {
	pre()
	if c {
		goto B
	}
A:
	onA()
	goto B
B:
	onB()
	if c {
		goto A
	}
}`)
	blkA := blockCalling(t, g, "onA")
	blkB := blockCalling(t, g, "onB")

	if !guaranteed(g, "pre", blkB) {
		t.Error("pre not guaranteed at B despite dominating the function")
	}
	if guaranteed(g, "onA", blkB) {
		t.Error("onA claimed guaranteed at B, but the direct goto skips A")
	}
	if guaranteed(g, "onB", blkA) {
		t.Error("onB claimed guaranteed at A, but entry falls into A first")
	}
	if !guaranteed(g, "pre", g.Exit) {
		t.Error("pre not guaranteed at exit")
	}
}

// TestDataflowLabelledLoops checks the path query through labelled
// continue and break: continue outer must route through the range head
// (not the inner loop), and break outer must reach the block after the
// outer loop directly.
func TestDataflowLabelledLoops(t *testing.T) {
	g, _ := parse(t, `func g(xs []int) {
	acquire()
outer:
	for _, x := range xs {
		inner()
		for {
			if x == 0 {
				continue outer
			}
			if x == 1 {
				break outer
			}
			step()
		}
	}
	release()
}`)
	blkStep := blockCalling(t, g, "step")
	blkRelease := blockCalling(t, g, "release")

	if !guaranteed(g, "acquire", blkRelease) {
		t.Error("acquire not guaranteed at release")
	}
	if guaranteed(g, "inner", blkRelease) {
		t.Error("inner claimed guaranteed at release, but the range may run zero iterations")
	}
	if guaranteed(g, "step", blkRelease) {
		t.Error("step claimed guaranteed at release, but break outer precedes it")
	}
	if !guaranteed(g, "inner", blkStep) {
		t.Error("inner not guaranteed at step, but every path into the inner loop runs it")
	}
}
