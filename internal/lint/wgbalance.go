package lint

import (
	"go/ast"
	"go/types"

	"crowdsky/internal/lint/analysis"
	"crowdsky/internal/lint/analysis/cfg"
)

// WgBalance checks sync.WaitGroup accounting on the shapes this
// repository actually uses (ParallelDSet/ParallelSL fan-out, the
// crowdserve worker fleet): Add before `go`, Done inside the goroutine,
// Wait at the join. Three bugs survive review and -race alike until the
// unlucky interleaving hits production:
//
//  1. Add called *inside* the spawned goroutine: Wait can run before the
//     goroutine is scheduled, see a zero counter and return early.
//  2. Done reachable on only some paths through the goroutine (an early
//     return before a non-deferred Done): Wait deadlocks. This is a
//     path query over the goroutine body's CFG: no path from its entry
//     to its return may skip Done.
//  3. Add on a locally declared WaitGroup with no Done anywhere in the
//     function (including its closures) and no escape: Wait, if present,
//     can never return.
//
// The canonical good pattern — Add inside a loop paired with a deferred
// Done in the goroutine spawned by the same iteration — passes all three.
var WgBalance = &analysis.Analyzer{
	Name: "wgbalance",
	Doc: "sync.WaitGroup Add/Done/Wait must balance along every CFG path: " +
		"Add before go, Done on all goroutine paths (prefer defer)",
	Run: runWgBalance,
}

func runWgBalance(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkWgInFunc(pass, fd)
		}
	}
	return nil
}

// wgCall classifies a selector call on a WaitGroup-typed receiver.
func wgCall(pass *analysis.Pass, n ast.Node) (method string, recv types.Object) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	switch sel.Sel.Name {
	case "Add", "Done", "Wait":
	default:
		return "", nil
	}
	if !isWaitGroup(pass.TypeOf(sel.X)) {
		return "", nil
	}
	// Track the receiver only when it is a plain variable (the repo
	// idiom); field/selector receivers are out of the local-balance scope.
	if id, ok := sel.X.(*ast.Ident); ok {
		if obj := pass.Info.Uses[id]; obj != nil {
			return sel.Sel.Name, obj
		}
	}
	return sel.Sel.Name, nil
}

// isWaitGroup reports whether t (possibly behind a pointer) is a named
// type called WaitGroup — sync.WaitGroup, or a fixture-local stand-in.
func isWaitGroup(t types.Type) bool {
	n := analysis.NamedOf(t)
	return n != nil && n.Obj().Name() == "WaitGroup"
}

func checkWgInFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Per-WaitGroup tallies across the whole function, closures included.
	type tally struct {
		addOutside []ast.Node // Add calls outside any go-closure
		doneAny    bool       // Done seen anywhere (function or closures)
		waitAny    bool
		escapes    bool // &wg passed/stored: balance is not local anymore
	}
	tallies := make(map[types.Object]*tally)
	get := func(obj types.Object) *tally {
		tl := tallies[obj]
		if tl == nil {
			tl = &tally{}
			tallies[obj] = tl
		}
		return tl
	}

	// goDepth tracks whether the walk is inside a `go func(){...}` literal.
	var walk func(n ast.Node, inGo bool)
	walk = func(n ast.Node, inGo bool) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.GoStmt:
				if fl, ok := x.Call.Fun.(*ast.FuncLit); ok {
					checkGoClosure(pass, fd, x, fl)
					walk(fl.Body, true)
					for _, arg := range x.Call.Args {
						walk(arg, inGo)
					}
					return false
				}
			case *ast.CallExpr:
				if m, obj := wgCall(pass, x); obj != nil {
					tl := get(obj)
					switch m {
					case "Add":
						if inGo {
							pass.Reportf(x.Pos(),
								"%s.Add inside the goroutine it accounts for: Wait may observe a zero counter before this goroutine runs; call Add before the go statement",
								obj.Name())
						} else {
							tl.addOutside = append(tl.addOutside, x)
						}
					case "Done":
						tl.doneAny = true
					case "Wait":
						tl.waitAny = true
					}
				}
			case *ast.UnaryExpr:
				// &wg handed to another function or stored: accounting is
				// shared with code this analyzer cannot see.
				if x.Op.String() == "&" {
					if id, ok := x.X.(*ast.Ident); ok {
						if obj := pass.Info.Uses[id]; obj != nil && isWaitGroup(obj.Type()) {
							get(obj).escapes = true
						}
					}
				}
			}
			return true
		})
	}
	walk(fd.Body, false)

	for obj, tl := range tallies {
		if len(tl.addOutside) == 0 || tl.doneAny || tl.escapes {
			continue
		}
		if !isLocalVar(pass, fd, obj) {
			continue
		}
		pass.Reportf(tl.addOutside[0].Pos(),
			"%s.Add has no matching Done anywhere in %s or its goroutines%s",
			obj.Name(), fd.Name.Name,
			map[bool]string{true: "; Wait will never return", false: ""}[tl.waitAny])
	}
}

// checkGoClosure verifies Done coverage inside one spawned goroutine: a
// non-deferred wg.Done must execute on every path to the closure's exit,
// or Wait deadlocks when the skipped path is taken.
func checkGoClosure(pass *analysis.Pass, fd *ast.FuncDecl, g *ast.GoStmt, fl *ast.FuncLit) {
	// Collect the WaitGroups this closure calls Done on, split by whether
	// every Done on that wg is deferred.
	type doneInfo struct {
		deferred bool
		plain    bool
	}
	dones := make(map[types.Object]*doneInfo)
	var inspectFor func(n ast.Node, inDefer bool)
	inspectFor = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				if x != fl {
					return false // deeper goroutine/closure: its own problem
				}
			case *ast.DeferStmt:
				if m, obj := wgCall(pass, x.Call); m == "Done" && obj != nil {
					di := dones[obj]
					if di == nil {
						di = &doneInfo{}
						dones[obj] = di
					}
					di.deferred = true
				}
				return false
			case *ast.CallExpr:
				if m, obj := wgCall(pass, x); m == "Done" && obj != nil {
					di := dones[obj]
					if di == nil {
						di = &doneInfo{}
						dones[obj] = di
					}
					di.plain = true
				}
			}
			return true
		})
	}
	inspectFor(fl.Body, false)

	var objs []types.Object
	for obj, di := range dones {
		if di.plain && !di.deferred {
			objs = append(objs, obj)
		}
	}
	if len(objs) == 0 {
		return
	}

	// A goroutine that never returns normally leaves Exit unreachable;
	// that is goroleak's territory.
	cg := cfg.New(fl.Body)
	for _, obj := range objs {
		done := func(b *cfg.Block) bool { return blockCallsDone(pass, b, obj) }
		if cg.Reachable(done)[cg.Exit.Index] {
			pass.Reportf(g.Pos(),
				"%s.Done is skipped on some path through this goroutine (early return before the call); `defer %s.Done()` at the top of the closure",
				obj.Name(), obj.Name())
		}
	}
}

// blockCallsDone reports whether block b contains wg.Done() on obj,
// outside nested function literals.
func blockCallsDone(pass *analysis.Pass, b *cfg.Block, obj types.Object) bool {
	found := false
	for _, n := range b.Nodes {
		ast.Inspect(n, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			if m, o := wgCall(pass, x); m == "Done" && o == obj {
				found = true
				return false
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// isLocalVar reports whether obj is a variable declared inside fd (not a
// parameter, receiver or package-level variable) — the only case where
// "no Done anywhere" is provably a bug rather than a contract with the
// caller.
func isLocalVar(pass *analysis.Pass, fd *ast.FuncDecl, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if fd.Type.Params != nil {
		for _, p := range fd.Type.Params.List {
			for _, name := range p.Names {
				if pass.Info.Defs[name] == obj {
					return false
				}
			}
		}
	}
	if fd.Recv != nil {
		for _, p := range fd.Recv.List {
			for _, name := range p.Names {
				if pass.Info.Defs[name] == obj {
					return false
				}
			}
		}
	}
	return fd.Body.Pos() <= v.Pos() && v.Pos() < fd.Body.End()
}
