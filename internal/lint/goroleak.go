package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"crowdsky/internal/lint/analysis"
	"crowdsky/internal/lint/analysis/cfg"
)

// GoroLeak hunts the two goroutine-leak shapes that matter for a
// long-running marketplace process, where a leaked goroutine is memory
// that never comes back and a wedged worker that never repolls:
//
//  1. A goroutine sending on an unbuffered local channel whose receive is
//     skipped on some path of the spawning function (the classic
//     "errCh := make(chan error); go ...; early return" leak): proven
//     with a CFG path query — no path from entry to return may skip a
//     receive from (or escape of) the channel.
//
//  2. A `go func() { for { select {...} } }` worker loop with no way out —
//     no reachable return, labeled break or terminating call — spawned in
//     a function that visibly has a stop signal (a context.Context or a
//     struct{} channel in scope). The signal exists; the loop ignores it.
//     Process-lifetime loops in functions with no stop signal (a main
//     without contexts) are deliberately not flagged.
var GoroLeak = &analysis.Analyzer{
	Name: "goroleak",
	Doc: "goroutines must be stoppable: channel sends need a receiver on " +
		"every path, and for/select worker loops need an exit when a stop " +
		"signal (context or done channel) is in scope",
	Run: runGoroLeak,
}

func runGoroLeak(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGoroLeakInFunc(pass, fd)
		}
	}
	return nil
}

func checkGoroLeakInFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	stopSignal := hasStopSignal(pass, fd)

	// Unbuffered channels declared in fd, and the goroutines sending on them.
	type sendSite struct {
		ch   types.Object
		g    *ast.GoStmt
		send *ast.SendStmt
	}
	var sends []sendSite

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		fl, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		// Shape 2: an inescapable loop where a stop signal exists.
		if stopSignal != "" {
			cg := cfg.New(fl.Body)
			if !canTerminate(cg) {
				pass.Reportf(g.Pos(),
					"goroutine can never exit (no reachable return or terminating call) although %s is in scope; add a stop case (e.g. <-ctx.Done() or a done channel) to the loop",
					stopSignal)
			}
		}
		// Shape 1: collect sends on enclosing-function channels.
		ast.Inspect(fl.Body, func(x ast.Node) bool {
			send, ok := x.(*ast.SendStmt)
			if !ok {
				return true
			}
			id, ok := send.Chan.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[id]
			if obj != nil && isUnbufferedLocalChan(pass, fd, obj) {
				sends = append(sends, sendSite{ch: obj, g: g, send: send})
			}
			return true
		})
		return true
	})

	if len(sends) == 0 {
		return
	}

	g := cfg.New(fd.Body)
	for _, s := range sends {
		receives := func(b *cfg.Block) bool { return blockConsumesChan(pass, b, s.ch, s.g) }
		if g.Reachable(receives)[g.Exit.Index] {
			pass.Reportf(s.g.Pos(),
				"goroutine sends on unbuffered channel %s, but some path out of %s never receives from it: the send blocks forever and the goroutine leaks; receive on every path, buffer the channel, or select on a done signal in the sender",
				s.ch.Name(), fd.Name.Name)
		}
	}
}

// canTerminate reports whether the unit behind g has any way to stop
// running: a reachable exit block (some return path) or a reachable
// terminating call (panic, os.Exit, log.Fatal*).
func canTerminate(g *cfg.Graph) bool {
	live := g.Reachable(nil)
	if live[g.Exit.Index] {
		return true
	}
	for _, b := range g.Blocks {
		if !live[b.Index] {
			continue
		}
		for _, n := range b.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok && cfg.IsTerminatingCall(es.X) {
				return true
			}
		}
	}
	return false
}

// blockConsumesChan reports whether block b discharges the receive
// obligation for channel obj: a receive expression (<-ch, for-range ch,
// a select case), closing the channel, or letting it escape (passing it
// to a call or returning it). Nodes inside the sending goroutine's own
// literal are skipped — the sender cannot unblock itself.
func blockConsumesChan(pass *analysis.Pass, b *cfg.Block, obj types.Object, sender *ast.GoStmt) bool {
	found := false
	usesObj := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && pass.Info.Uses[id] == obj
	}
	for _, n := range b.Nodes {
		if n == sender {
			continue
		}
		ast.Inspect(n, func(x ast.Node) bool {
			if x == sender {
				return false
			}
			switch x := x.(type) {
			case *ast.UnaryExpr:
				if x.Op == token.ARROW && usesObj(x.X) {
					found = true
				}
			case *ast.RangeStmt:
				if usesObj(x.X) {
					found = true
				}
			case *ast.CallExpr:
				// close(ch) or ch handed to another function.
				for _, arg := range x.Args {
					if usesObj(arg) {
						found = true
					}
				}
			case *ast.ReturnStmt:
				for _, r := range x.Results {
					if usesObj(r) {
						found = true
					}
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// isUnbufferedLocalChan reports whether obj is a channel variable declared
// in fd via make(chan T) with no capacity (or explicit 0) — the only case
// where an unreceived send provably blocks forever.
func isUnbufferedLocalChan(pass *analysis.Pass, fd *ast.FuncDecl, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if _, isChan := v.Type().Underlying().(*types.Chan); !isChan {
		return false
	}
	if v.Pos() < fd.Body.Pos() || v.Pos() >= fd.Body.End() {
		return false
	}
	// Find the declaring assignment and require an unbuffered make.
	unbuffered := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || pass.Info.Defs[id] != obj || i >= len(as.Rhs) {
				continue
			}
			if call, ok := as.Rhs[i].(*ast.CallExpr); ok {
				if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "make" {
					if len(call.Args) == 1 {
						unbuffered = true
					} else if len(call.Args) == 2 {
						if tv, ok := pass.Info.Types[call.Args[1]]; ok && tv.Value != nil && tv.Value.String() == "0" {
							unbuffered = true
						}
					}
				}
			}
		}
		return true
	})
	return unbuffered
}

// hasStopSignal returns a short description of the first stop signal in
// fd's scope — a context.Context or a struct{} channel among its
// parameters or body declarations — or "" when none exists.
func hasStopSignal(pass *analysis.Pass, fd *ast.FuncDecl) string {
	signal := ""
	consider := func(obj types.Object) {
		if obj == nil || signal != "" {
			return
		}
		t := obj.Type()
		if isContextType(t) {
			signal = "context " + obj.Name()
			return
		}
		if ch, ok := t.Underlying().(*types.Chan); ok {
			if st, ok := ch.Elem().Underlying().(*types.Struct); ok && st.NumFields() == 0 {
				signal = "done channel " + obj.Name()
			}
		}
	}
	if fd.Type.Params != nil {
		for _, p := range fd.Type.Params.List {
			for _, name := range p.Names {
				consider(pass.Info.Defs[name])
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if signal != "" {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Info.Defs[id]; obj != nil {
				consider(obj)
			}
		}
		return true
	})
	return signal
}

// isContextType reports whether t is context.Context (or a fixture-local
// interface named Context).
func isContextType(t types.Type) bool {
	n := analysis.NamedOf(t)
	if n == nil || n.Obj().Name() != "Context" {
		return false
	}
	_, isIface := n.Underlying().(*types.Interface)
	return isIface
}
