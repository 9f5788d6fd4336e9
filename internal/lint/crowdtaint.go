package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"crowdsky/internal/lint/analysis"
	"crowdsky/internal/lint/analysis/callgraph"
	"crowdsky/internal/lint/analysis/ssa"
)

// CrowdTaint is the taint analyzer for crowd-facing inputs. CrowdSky's
// serve path trusts nothing a worker sends: HTTP query parameters,
// header values, and decoded judgment payloads are attacker-controlled,
// and journal records replayed at recovery time were written under a
// previous (possibly crashed mid-write) run. The analyzer tracks that
// data through the SSA value graph — field loads, string formatting,
// conversions, helper calls (via bottom-up call-graph summaries) — and
// reports when it reaches one of three sink shapes unsanitized:
//
//   - a filesystem path argument of an os.* call (path traversal);
//   - a slice/array index with no dominating upper-bound check (panic
//     a hostile client can trigger at will);
//   - a string key stored into a persistent map — a struct field or
//     package-level map, e.g. the idempotency and per-worker accounting
//     maps — letting one client grow server state without bound.
//
// Sanitizers cut the flow: filepath.Base / path.Base, and any function
// whose doc comment carries a "skylint:sanitizer" annotation (the
// function promises to validate or canonicalize its input, typically
// rejecting the request otherwise). Bounds checks are recognized
// path-sensitively through SSA pi nodes: `if i < 0 || i >= len(s) {
// return }` clears the unbounded bit on the fallthrough edge.
var CrowdTaint = &analysis.Analyzer{
	Name: "crowdtaint",
	Doc: "reports crowd-controlled data (HTTP request fields, worker judgment " +
		"payloads, replayed journal records) flowing into filesystem paths, " +
		"unchecked slice indexes, or persistent map keys without passing a " +
		"skylint:sanitizer-annotated validator",
	Run:    crowdtaintRun,
	Finish: crowdtaintFinish,
}

func crowdtaintRun(pass *analysis.Pass) error {
	callgraph.Shared(pass)
	finishPasses(pass, "crowdtaint.passes")
	sanitizers := pass.Program().Fact("crowdtaint.sanitizers", func() any {
		return make(map[string]bool)
	}).(map[string]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.Contains(c.Text, "skylint:sanitizer") {
					if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
						sanitizers[callgraph.FuncID(fn)] = true
					}
					break
				}
			}
		}
	}
	return nil
}

func crowdtaintFinish(prog *analysis.Program) error {
	b, ok := prog.Fact("callgraph.builder", func() any { return nil }).(*callgraph.Builder)
	if !ok || b == nil {
		return nil
	}
	passes := prog.Fact("crowdtaint.passes", func() any {
		return make(map[string]*analysis.Pass)
	}).(map[string]*analysis.Pass)
	sanitizers := prog.Fact("crowdtaint.sanitizers", func() any {
		return make(map[string]bool)
	}).(map[string]bool)
	g := b.Graph()
	// Both phases solve over every body, so each node's SSA is built once
	// and memoized here.
	built := make(map[*callgraph.Node]*ssa.Func)
	ssaOf := func(n *callgraph.Node) *ssa.Func {
		f, ok := built[n]
		if !ok {
			f = buildSSA(n)
			built[n] = f
		}
		return f
	}

	// Phase 1: bottom-up per-function result-taint summaries, so taint
	// minted inside a helper (a journal read, a formatted composite of a
	// tainted field) surfaces at its call sites. Argument-to-result flow
	// is handled at the call site by joining argument taint directly, so
	// the summary only has to cover taint the callee generates.
	summaries := g.BottomUp(func(n *callgraph.Node, get func(*callgraph.Node) any) any {
		f := ssaOf(n)
		if f == nil || n.Pass == nil {
			return taintSummaryUnknown
		}
		tc := &taintCtx{
			f:          f,
			info:       n.Pass.Info,
			sanitizers: sanitizers,
			summaryOf: func(fn *types.Func) string {
				if fn == nil {
					return taintSummaryUnknown
				}
				if cn := g.Lookup(callgraph.FuncID(fn)); cn != nil {
					s, _ := get(cn).(string)
					return s // "" while cn's SCC is still iterating: bottom
				}
				return taintSummaryUnknown
			},
		}
		return encodeTaintSummary(nodeSignature(n), f, tc.solve())
	})
	finalSummary := func(fn *types.Func) string {
		if fn == nil {
			return taintSummaryUnknown
		}
		if n := g.Lookup(callgraph.FuncID(fn)); n != nil {
			if s, ok := summaries[n].(string); ok {
				return s
			}
		}
		return taintSummaryUnknown
	}

	// Phase 2: re-solve against final summaries and walk the sinks, in
	// node ID order for deterministic diagnostics.
	for _, n := range g.Nodes {
		pass := passes[n.PkgPath]
		if pass == nil || n.Body == nil {
			continue
		}
		f := ssaOf(n)
		if f == nil {
			continue
		}
		tc := &taintCtx{f: f, info: pass.Info, sanitizers: sanitizers, summaryOf: finalSummary}
		c := &crowdtaintCheck{pass: pass, f: f, facts: tc.solve()}
		c.walk(n.Body)
	}
	return nil
}

// buildSSA builds the SSA form of n's body. Nodes without a body or
// without a defining pass (external declarations, the per-package init
// pseudo-node) yield nil.
func buildSSA(n *callgraph.Node) *ssa.Func {
	switch {
	case n.Pass == nil || n.Body == nil:
		return nil
	case n.Decl != nil:
		return ssa.BuildFunc(n.Decl, n.Pass.Info)
	case n.Lit != nil:
		return ssa.BuildLit(n.Lit, n.Pass.Info)
	}
	return nil
}

// nodeSignature resolves the type signature of a call-graph node.
func nodeSignature(n *callgraph.Node) *types.Signature {
	switch {
	case n.Decl != nil && n.Pass != nil:
		if obj, ok := n.Pass.Info.Defs[n.Decl.Name].(*types.Func); ok {
			sig, _ := obj.Type().(*types.Signature)
			return sig
		}
	case n.Lit != nil && n.Pass != nil:
		sig, _ := n.Pass.Info.TypeOf(n.Lit).(*types.Signature)
		return sig
	}
	return nil
}

// ---------------------------------------------------------------------
// Intraprocedural solve

// taintCtx carries what the transfer function needs beyond the value
// graph itself: type info for dispatching on expression shape, the
// sanitizer set, and callee summaries.
type taintCtx struct {
	f          *ssa.Func
	info       *types.Info
	sanitizers map[string]bool
	summaryOf  func(*types.Func) string
}

func (tc *taintCtx) solve() []ssa.Taint {
	p := ssa.Problem[ssa.Taint]{
		Join:     ssa.JoinTaint,
		Refine:   ssa.RefineTaint,
		Transfer: tc.transfer,
	}
	return p.Solve(tc.f)
}

func (tc *taintCtx) transfer(v *ssa.Value, get func(*ssa.Value) ssa.Taint) ssa.Taint {
	switch v.Kind {
	case ssa.KParam:
		// The root source: an *http.Request parameter. Everything read
		// off it (URL, Header, Body, form values) inherits the taint by
		// propagation below.
		if v.Var != nil && isHTTPRequest(v.Var.Obj.Type()) {
			return ssa.Tainted | ssa.Unbounded
		}
		return 0
	case ssa.KCall:
		return tc.call(v, get)
	case ssa.KExtract:
		if len(v.Args) == 1 {
			return get(v.Args[0])
		}
		return 0
	case ssa.KOutDef:
		// Decode(&body)-style out-parameter definition: the variable is
		// as tainted as the call that filled it.
		if len(v.Args) == 1 {
			return get(v.Args[0])
		}
		return 0
	case ssa.KExpr:
		return tc.expr(v, get)
	default: // KConst, KUndef (KPhi/KPi are the solver's)
		return 0
	}
}

func (tc *taintCtx) call(v *ssa.Value, get func(*ssa.Value) ssa.Taint) ssa.Taint {
	if v.IsConvert && len(v.Args) == 1 {
		return get(v.Args[0]) // conversions preserve taint
	}
	if v.Builtin != "" {
		if v.Builtin == "append" {
			out := ssa.Taint(0)
			for _, a := range v.Args {
				out |= get(a)
			}
			return out
		}
		return 0 // len, cap, make, new: results are not crowd data
	}
	if v.Callee != nil {
		if tc.isSanitizer(v.Callee) {
			return 0
		}
		if t, ok := sourceTaint(v.Callee); ok {
			return t
		}
	}
	// Default: calls propagate — the result is as tainted as the worst
	// of the arguments and the receiver (fmt.Sprintf over a tainted
	// field, strconv over a tainted string, strings.TrimSpace, ...).
	out := ssa.Taint(0)
	for _, a := range v.Args {
		out |= get(a)
	}
	if call, ok := v.Node.(*ast.CallExpr); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if xv := tc.valueOf(sel.X); xv != nil {
				out |= get(xv)
			}
		}
	}
	if v.Callee != nil {
		out |= resultTaint(tc.summaryOf(v.Callee))
	}
	return out
}

// expr dispatches an untracked expression on its syntactic shape. The
// load-bearing cases are the container reads: an index read takes the
// taint of the container, never of the index (looking a tainted key up
// in a trusted map yields trusted data), and an untracked selector read
// takes the taint of its base (body.Worker is as tainted as body).
func (tc *taintCtx) expr(v *ssa.Value, get func(*ssa.Value) ssa.Taint) ssa.Taint {
	switch node := v.Node.(type) {
	case *ast.IndexExpr:
		if xv := tc.valueOf(node.X); xv != nil {
			return get(xv)
		}
		return 0
	case *ast.SliceExpr:
		if xv := tc.valueOf(node.X); xv != nil {
			return get(xv)
		}
		return 0
	case *ast.SelectorExpr:
		if xv := tc.valueOf(node.X); xv != nil {
			return get(xv)
		}
		return 0
	case *ast.RangeStmt:
		// A range key/value variable, Args[0] the ranged container.
		// Values inherit the container's taint wholesale; keys are
		// in-bounds over that container by construction, so the
		// unbounded bit does not survive onto them.
		out := ssa.Taint(0)
		for _, a := range v.Args {
			out |= get(a)
		}
		if key, ok := node.Key.(*ast.Ident); ok && v.Var != nil && tc.info.Defs[key] == v.Var.Obj {
			out &^= ssa.Unbounded
		}
		return out
	case *ast.BinaryExpr, *ast.UnaryExpr, *ast.StarExpr, *ast.CompositeLit, *ast.TypeAssertExpr:
		out := ssa.Taint(0)
		for _, a := range v.Args {
			out |= get(a)
		}
		return out
	default:
		_ = node
		return 0 // opaque: globals, captures, multi-assign targets
	}
}

func (tc *taintCtx) valueOf(e ast.Expr) *ssa.Value {
	if v := tc.f.ValueOf[ast.Unparen(e)]; v != nil {
		return v
	}
	return tc.f.ValueOf[e]
}

// isSanitizer reports whether a call to fn launders its input: either
// annotated skylint:sanitizer, or one of the blessed path canonicalizers.
func (tc *taintCtx) isSanitizer(fn *types.Func) bool {
	if tc.sanitizers[callgraph.FuncID(fn)] {
		return true
	}
	if pkg := fn.Pkg(); pkg != nil && fn.Name() == "Base" {
		switch pkg.Path() {
		case "path/filepath", "path":
			return true
		}
	}
	return false
}

// sourceTaint recognizes calls that mint crowd-controlled data outside
// the *http.Request parameter flow: journal reads. Replayed records
// were produced by a previous process — possibly truncated mid-write —
// so recovery code must treat them like network input.
func sourceTaint(fn *types.Func) (ssa.Taint, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return 0, false
	}
	path := pkg.Path()
	if path != "journal" && !strings.HasSuffix(path, "/journal") {
		return 0, false
	}
	switch fn.Name() {
	case "Read", "Recover":
		return ssa.Tainted | ssa.Unbounded, true
	}
	return 0, false
}

func isHTTPRequest(t types.Type) bool {
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named := analysis.NamedOf(p.Elem())
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Request" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

// ---------------------------------------------------------------------
// Summaries

// A taint summary is one byte per result: '0'+Taint bitmask joined over
// the function's return statements. taintSummaryUnknown marks functions
// outside the program; since external callees are handled by argument
// propagation at the call site, unknown decodes as clean.
const taintSummaryUnknown = "?"

// resultTaint decodes a summary as the join over all results. Per-index
// precision is not worth the bookkeeping here: multi-result functions
// returning a mix of tainted and clean values are rare, and the join
// only ever errs toward reporting.
func resultTaint(s string) ssa.Taint {
	if s == "" || s == taintSummaryUnknown {
		return 0
	}
	out := ssa.Taint(0)
	for i := 0; i < len(s); i++ {
		out |= ssa.Taint(s[i] - '0')
	}
	return out
}

func encodeTaintSummary(sig *types.Signature, f *ssa.Func, facts []ssa.Taint) string {
	width := 0
	if sig != nil {
		width = sig.Results().Len()
	}
	for _, vals := range f.ReturnVals {
		if len(vals) > width {
			width = len(vals)
		}
	}
	if width == 0 {
		return "" // nothing flows out; decodes as clean
	}
	states := make([]ssa.Taint, width)
	for _, vals := range f.ReturnVals {
		for i, v := range vals {
			if v == nil || i >= width {
				continue
			}
			states[i] |= facts[v.ID]
		}
	}
	buf := make([]byte, width)
	for i, s := range states {
		buf[i] = '0' + byte(s)
	}
	return string(buf)
}

// ---------------------------------------------------------------------
// Sink walk

type crowdtaintCheck struct {
	pass  *analysis.Pass
	f     *ssa.Func
	facts []ssa.Taint
}

// walk visits one function unit's sinks. Nested literals are their own
// call-graph nodes and are skipped here.
func (c *crowdtaintCheck) walk(body ast.Node) {
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			c.pathSink(x)
		case *ast.IndexExpr:
			c.indexSink(x)
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				c.mapKeySink(lhs)
			}
		case *ast.IncDecStmt:
			c.mapKeySink(x.X)
		}
		return true
	})
}

func (c *crowdtaintCheck) taintOf(e ast.Expr) ssa.Taint {
	v := c.f.ValueOf[ast.Unparen(e)]
	if v == nil {
		v = c.f.ValueOf[e]
	}
	if v == nil {
		return 0
	}
	return c.facts[v.ID]
}

// osPathArgs maps os functions to the indices of their path arguments.
var osPathArgs = map[string][]int{
	"Open": {0}, "Create": {0}, "OpenFile": {0}, "Remove": {0},
	"RemoveAll": {0}, "Mkdir": {0}, "MkdirAll": {0}, "ReadFile": {0},
	"WriteFile": {0}, "Stat": {0}, "Lstat": {0}, "Truncate": {0},
	"Chdir": {0}, "ReadDir": {0}, "DirFS": {0},
	"Rename": {0, 1}, "Symlink": {0, 1}, "Link": {0, 1},
}

// pathSink flags crowd data used as an os.* path: a worker-chosen name
// containing separators or ".." escapes whatever directory the server
// meant to confine it to.
func (c *crowdtaintCheck) pathSink(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := c.pass.Info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "os" {
		return
	}
	idxs, ok := osPathArgs[sel.Sel.Name]
	if !ok {
		return
	}
	for _, i := range idxs {
		if i >= len(call.Args) {
			continue
		}
		arg := call.Args[i]
		if c.taintOf(arg)&ssa.Tainted != 0 {
			c.pass.Reportf(arg.Pos(),
				"%s is crowd-controlled and reaches os.%s as a filesystem path; "+
					"a hostile worker can traverse outside the intended directory — "+
					"apply filepath.Base or a skylint:sanitizer helper first",
				analysis.ExprString(arg), sel.Sel.Name)
		}
	}
}

// indexSink flags slice/array indexing by crowd data with no dominating
// bounds check (the Unbounded bit survives only if no `< len(...)`-style
// comparison refined the value on the path here).
func (c *crowdtaintCheck) indexSink(x *ast.IndexExpr) {
	t := c.pass.TypeOf(x.X)
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array:
	case *types.Pointer:
		if _, ok := u.Elem().Underlying().(*types.Array); !ok {
			return
		}
	default:
		return
	}
	const need = ssa.Tainted | ssa.Unbounded
	if c.taintOf(x.Index)&need == need {
		c.pass.Reportf(x.Index.Pos(),
			"%s is crowd-controlled and indexes %s without a bounds check; "+
				"a hostile worker can panic the server — compare it against len(...) first",
			analysis.ExprString(x.Index), analysis.ExprString(x.X))
	}
}

// mapKeySink flags crowd-controlled string keys written into persistent
// maps. A map rooted in a struct field or package-level variable outlives
// the request, so an unvalidated key lets one client insert arbitrarily
// many entries (and arbitrary bytes) into long-lived server state.
func (c *crowdtaintCheck) mapKeySink(lhs ast.Expr) {
	ie, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	mt, ok := typeAsMap(c.pass.TypeOf(ie.X))
	if !ok {
		return
	}
	if b, ok := mt.Key().Underlying().(*types.Basic); !ok || b.Kind() != types.String {
		return // growth via non-string keys needs a different fix; out of scope
	}
	base, persistent := c.persistentBase(ie.X)
	if !persistent {
		return
	}
	if c.taintOf(ie.Index)&ssa.Tainted != 0 {
		c.pass.Reportf(ie.Index.Pos(),
			"%s is crowd-controlled and is stored as a key of persistent map %s; "+
				"a hostile worker can grow server state without bound — validate it "+
				"with a skylint:sanitizer helper before storing",
			analysis.ExprString(ie.Index), base)
	}
}

func typeAsMap(t types.Type) (*types.Map, bool) {
	if t == nil {
		return nil, false
	}
	m, ok := t.Underlying().(*types.Map)
	return m, ok
}

// persistentBase strips index layers off a map expression and reports
// whether the root is long-lived state: a struct field or a
// package-level variable. Request-local scratch maps are not sinks.
func (c *crowdtaintCheck) persistentBase(e ast.Expr) (string, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel, ok := c.pass.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				return analysis.ExprString(x), true
			}
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := c.pass.Info.Uses[id].(*types.PkgName); isPkg {
					return analysis.ExprString(x), true // qualified package-level var
				}
			}
			return "", false
		case *ast.Ident:
			v, ok := c.pass.Info.Uses[x].(*types.Var)
			if ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return x.Name, true
			}
			return "", false
		default:
			return "", false
		}
	}
}
