package lint

import (
	"go/ast"
	"go/types"

	"crowdsky/internal/lint/analysis"
	"crowdsky/internal/lint/analysis/cfg"
)

// CtxLeak proves context cancellation: the cancel function returned by
// context.WithCancel / WithTimeout / WithDeadline must be called on every
// path out of the function that created it, or the derived context (and
// its timer, for WithTimeout/WithDeadline) is pinned until the parent
// context dies — in a server like crowdserved, effectively forever.
//
// The check is a path query over the function's control-flow graph: any
// use of the cancel variable discharges the obligation — a direct call, a
// `defer cancel()` (registration guarantees the call on every later
// exit), or an escape (passing cancel to another function or storing it
// hands off the obligation) — and a finding is a path from entry to the
// exit block, which only paths ending in `return` (not panic/os.Exit)
// flow into, that passes no such use. Assigning the cancel function to
// the blank identifier is reported unconditionally: that context can
// never be cancelled early.
var CtxLeak = &analysis.Analyzer{
	Name: "ctxleak",
	Doc: "cancel functions from context.WithCancel/WithTimeout/WithDeadline " +
		"must be called on every path (defer cancel() or all-branch coverage)",
	Run: runCtxLeak,
}

func runCtxLeak(pass *analysis.Pass) error {
	forEachFuncUnit(pass, func(name string, body *ast.BlockStmt) {
		checkCtxLeakInUnit(pass, name, body)
	})
	return nil
}

// forEachFuncUnit visits every function body in the package: declared
// functions and every function literal (each literal is its own unit with
// its own control-flow graph; an inner literal's body is also scanned as
// part of its enclosing unit, where any use of an outer variable counts as
// an escape — conservative in exactly the right direction).
func forEachFuncUnit(pass *analysis.Pass, fn func(name string, body *ast.BlockStmt)) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn(fd.Name.Name, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					fn(fd.Name.Name+" (func literal)", fl.Body)
				}
				return true
			})
		}
	}
}

// cancelSite is one context.WithX assignment inside a unit.
type cancelSite struct {
	call   *ast.CallExpr // the WithCancel/WithTimeout/WithDeadline call
	fnName string        // "WithCancel", ...
	obj    types.Object  // the cancel variable; nil when discarded with _
}

func checkCtxLeakInUnit(pass *analysis.Pass, name string, body *ast.BlockStmt) {
	var sites []cancelSite
	ast.Inspect(body, func(n ast.Node) bool {
		// Nested literals are their own units.
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 2 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		fnName := contextWithFunc(pass, call)
		if fnName == "" {
			return true
		}
		id, ok := as.Lhs[1].(*ast.Ident)
		if !ok {
			return true
		}
		if id.Name == "_" {
			pass.Reportf(call.Pos(),
				"the cancel function of context.%s is discarded (assigned to _): the derived context can never be cancelled and leaks until the parent is done",
				fnName)
			return true
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj != nil {
			sites = append(sites, cancelSite{call: call, fnName: fnName, obj: obj})
		}
		return true
	})
	if len(sites) == 0 {
		return
	}

	// A unit that never returns normally leaves Exit unreachable, so
	// nothing can leak past it.
	g := cfg.New(body)
	for _, s := range sites {
		uses := func(b *cfg.Block) bool { return blockUsesObj(pass, b, s.obj) }
		if g.Reachable(uses)[g.Exit.Index] {
			pass.Reportf(s.call.Pos(),
				"context.%s's cancel function is not called on every path out of %s; `defer %s()` immediately after this line (or cover every branch) to avoid leaking the context",
				s.fnName, name, s.obj.Name())
		}
	}
}

// blockUsesObj reports whether any node of b uses obj (call, defer,
// argument, closure capture — any use discharges the obligation). Nested
// function literals are scanned too: a closure that captures the variable
// either calls it later or hands it on, both of which count as handled
// here and are re-checked inside the literal's own unit when it is the
// definer.
func blockUsesObj(pass *analysis.Pass, b *cfg.Block, obj types.Object) bool {
	found := false
	for _, n := range b.Nodes {
		ast.Inspect(n, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
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

// contextWithFunc returns "WithCancel", "WithTimeout" or "WithDeadline"
// when call is a call to that function of the standard context package
// (matched by the callee's package path, so aliased imports resolve too),
// or "" otherwise. context.WithCancelCause &c. are included: they return
// cancel functions with the same obligation.
func contextWithFunc(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj := pass.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return ""
	}
	switch obj.Name() {
	case "WithCancel", "WithTimeout", "WithDeadline",
		"WithCancelCause", "WithTimeoutCause", "WithDeadlineCause":
		return obj.Name()
	}
	return ""
}
