package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"crowdsky/internal/lint/analysis"
	"crowdsky/internal/lint/analysis/callgraph"
	"crowdsky/internal/lint/analysis/ssa"
)

// Nilness is the SSA-based nil-deref analyzer. It subsumes the retired
// niltrace analyzer and generalizes it in three directions:
//
//   - flow and path sensitivity: `if x != nil` refines x through an SSA
//     pi node on the branch edge, so a guard anywhere the deref is
//     dominated by counts, not just the syntactic `if` body;
//   - general dereference shapes: pointer loads and stores (*p, p.f),
//     nil-map writes, nil-slice indexing, calls through nil function
//     values and nil interfaces — reported whenever a nil definition
//     (literal nil, a `var` zero value, an `== nil` branch) reaches the
//     site, definitely or on at least one path;
//   - interprocedural summaries: every function gets a bottom-up
//     per-result nilness summary over the call graph, so dereferencing
//     the unchecked result of a conditionally-nil-returning function is
//     flagged at the call site. For (T, error) results the summary only
//     reflects paths where the returned error is not provably non-nil —
//     the `return nil, err` idiom does not taint callers that cannot
//     observe it.
//
// The Tracer policy is inherited from niltrace unchanged: x.Emit(...) on
// an expression whose static type is the Tracer interface must be proven
// non-nil (Options.Tracer is nil for every untraced run). Where the SSA
// builder cannot track the receiver (package-level vars, closure
// captures), the original syntactic guard matching applies as a
// fallback, so precision is a strict superset of niltrace's.
var Nilness = &analysis.Analyzer{
	Name: "nilness",
	Doc: "reports nil dereferences proven by SSA value flow: unguarded Emit on " +
		"Tracer values, loads/stores through nil pointers, nil-map writes, calls " +
		"through nil funcs and interfaces, and unchecked use of results from " +
		"conditionally-nil-returning functions (call-graph summaries)",
	Run:    nilnessRun,
	Finish: nilnessFinish,
}

func nilnessRun(pass *analysis.Pass) error {
	callgraph.Shared(pass)
	hotPasses(pass, "nilness.passes")
	return nil
}

func nilnessFinish(prog *analysis.Program) error {
	b, ok := prog.Fact("callgraph.builder", func() any { return nil }).(*callgraph.Builder)
	if !ok || b == nil {
		return nil
	}
	passes := prog.Fact("nilness.passes", func() any {
		return make(map[string]*analysis.Pass)
	}).(map[string]*analysis.Pass)
	g := b.Graph()
	cache := sharedSSA(prog)

	// Phase 1: bottom-up per-result nilness summaries. Callees in earlier
	// SCCs are final; in-flight members of the same SCC read as bottom
	// and the component iterates to a fixpoint (summaries only grow).
	summaries := g.BottomUp(func(n *callgraph.Node, get func(*callgraph.Node) any) any {
		f := cache.Func(n)
		if f == nil {
			return nilSummaryUnknown
		}
		facts := solveNilness(f, func(fn *types.Func) string {
			if fn == nil {
				return nilSummaryUnknown
			}
			if cn := g.Lookup(callgraph.FuncID(fn)); cn != nil {
				s, _ := get(cn).(string)
				return s // "" while cn's own SCC is still iterating: bottom
			}
			return nilSummaryUnknown
		})
		return encodeNilSummary(nodeSignature(n), f, facts)
	})
	finalSummary := func(fn *types.Func) string {
		if fn == nil {
			return nilSummaryUnknown
		}
		if n := g.Lookup(callgraph.FuncID(fn)); n != nil {
			if s, ok := summaries[n].(string); ok {
				return s
			}
		}
		return nilSummaryUnknown
	}

	// Syntactic Tracer guards per package, the fallback for receivers the
	// SSA builder does not track (globals, closure captures).
	guardsByPkg := make(map[string][]nilGuard)
	for path, pass := range passes {
		guardsByPkg[path] = collectNilGuards(pass)
	}

	// Phase 2: re-solve each function against the final summaries and
	// walk its dereference sites. Nodes are in ID order, so diagnostics
	// are deterministic.
	for _, n := range g.Nodes {
		pass := passes[n.PkgPath]
		if pass == nil || n.Body == nil {
			continue
		}
		f := cache.Func(n)
		if f == nil {
			continue
		}
		c := &nilnessCheck{
			pass:   pass,
			f:      f,
			facts:  solveNilness(f, finalSummary),
			guards: guardsByPkg[n.PkgPath],
		}
		c.walk(n.Body)
	}
	return nil
}

// ---------------------------------------------------------------------
// Intraprocedural solve

// solveNilness runs the nilness lattice over f, consulting summaryOf for
// the per-result nilness of static callees.
func solveNilness(f *ssa.Func, summaryOf func(*types.Func) string) []ssa.Nilness {
	p := ssa.Problem[ssa.Nilness]{
		Join:   ssa.JoinNilness,
		Refine: ssa.RefineNilness,
		Transfer: func(v *ssa.Value, get func(*ssa.Value) ssa.Nilness) ssa.Nilness {
			return nilnessTransfer(v, get, summaryOf)
		},
	}
	return p.Solve(f)
}

func nilnessTransfer(v *ssa.Value, get func(*ssa.Value) ssa.Nilness, summaryOf func(*types.Func) string) ssa.Nilness {
	switch v.Kind {
	case ssa.KConst:
		if v.IsNil {
			return ssa.NilBit
		}
		return ssa.NonNilBit
	case ssa.KCall:
		switch {
		case v.Builtin == "make" || v.Builtin == "new":
			return ssa.NonNilBit
		case v.Builtin != "":
			return ssa.UnknownBit
		case v.IsConvert && len(v.Args) == 1:
			return get(v.Args[0]) // conversions preserve nilness
		case v.Callee != nil:
			return resultNilness(summaryOf(v.Callee), 0)
		}
		return ssa.UnknownBit
	case ssa.KExtract:
		if len(v.Args) == 1 {
			if c := v.Args[0]; c.Kind == ssa.KCall && c.Callee != nil && !c.IsConvert && c.Builtin == "" {
				return resultNilness(summaryOf(c.Callee), v.Index)
			}
		}
		return ssa.UnknownBit
	case ssa.KExpr:
		switch node := v.Node.(type) {
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				return ssa.NonNilBit // &x is never nil
			}
		case *ast.CompositeLit, *ast.FuncLit:
			return ssa.NonNilBit
		}
		return ssa.UnknownBit
	default: // KParam, KOutDef, KUndef
		return ssa.UnknownBit
	}
}

// ---------------------------------------------------------------------
// Summaries

// A nilness summary is one byte per result: '0'+Nilness bitmask, joined
// over the function's return statements. nilSummaryUnknown marks
// functions outside the program (or without a body); the empty string is
// the in-flight bottom of a cyclic component.
const nilSummaryUnknown = "?"

// resultNilness decodes result i of a summary.
func resultNilness(s string, i int) ssa.Nilness {
	if s == "" {
		return 0
	}
	if s == nilSummaryUnknown || i >= len(s) {
		return ssa.UnknownBit
	}
	return ssa.Nilness(s[i] - '0')
}

// encodeNilSummary joins the solved nilness of every returned value into
// the per-result summary string. Return statements whose trailing error
// result is provably non-nil contribute nothing to the earlier results:
// a correct caller checks the error before touching them, so the
// `return nil, err` arm must not mark the primary result nil-on-some-path.
func encodeNilSummary(sig *types.Signature, f *ssa.Func, facts []ssa.Nilness) string {
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
		return nilSummaryUnknown
	}
	errTrailing := sig != nil && width >= 2 && types.Identical(sig.Results().At(width-1).Type(), errorType)
	states := make([]ssa.Nilness, width)
	for _, vals := range f.ReturnVals {
		onErrPath := false
		if errTrailing && len(vals) == width {
			// The arm is an error path when the returned error cannot be
			// nil here: provably non-nil (an `err != nil` region) or of
			// unknown-but-never-nil provenance (errors.New, fmt.Errorf).
			if last := vals[width-1]; last != nil {
				if st := facts[last.ID]; st != 0 && st&ssa.NilBit == 0 {
					onErrPath = true
				}
			}
		}
		for i, v := range vals {
			if v == nil || i >= width {
				continue
			}
			if onErrPath && i < width-1 {
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
// Dereference walk

type nilnessCheck struct {
	pass   *analysis.Pass
	f      *ssa.Func
	facts  []ssa.Nilness
	guards []nilGuard
	local  []nilGuard
}

// walk visits one function unit's dereference sites. Nested literals are
// their own call-graph nodes and are skipped here.
func (c *nilnessCheck) walk(body ast.Node) {
	c.local = collectCondGuards(body)
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			c.call(x)
		case *ast.StarExpr:
			if tv, ok := c.pass.Info.Types[x]; ok && tv.IsValue() {
				c.deref(x.X, "dereference")
			}
		case *ast.SelectorExpr:
			c.selector(x)
		case *ast.IndexExpr:
			c.index(x)
		case *ast.AssignStmt:
			c.mapWrites(x)
		}
		return true
	})
}

// selector flags field loads/stores through a nil pointer base.
func (c *nilnessCheck) selector(x *ast.SelectorExpr) {
	sel, ok := c.pass.Info.Selections[x]
	if !ok || sel.Kind() != types.FieldVal {
		return
	}
	t := c.pass.TypeOf(x.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Pointer); ok {
		c.deref(x.X, "field access")
	}
}

// index flags indexing a nil *array. Nil-map reads are legal, map
// writes are handled by mapWrites, and nil-slice indexing is a bounds
// failure rather than a nilness one (s[i] on a nil slice panics exactly
// when it would on any empty slice), so slices are deliberately out of
// scope here.
func (c *nilnessCheck) index(x *ast.IndexExpr) {
	t := c.pass.TypeOf(x.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Pointer); ok {
		c.deref(x.X, "index expression")
	}
}

// mapWrites flags assignments into a nil map.
func (c *nilnessCheck) mapWrites(a *ast.AssignStmt) {
	for _, lhs := range a.Lhs {
		ie, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			continue
		}
		t := c.pass.TypeOf(ie.X)
		if t == nil {
			continue
		}
		if _, ok := t.Underlying().(*types.Map); ok {
			c.deref(ie.X, "map write")
		}
	}
}

func (c *nilnessCheck) call(call *ast.CallExpr) {
	if tv, ok := c.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Emit" && isTracerInterface(c.pass.TypeOf(fun.X)) {
			c.tracerEmit(call, fun)
			return
		}
		if sel, ok := c.pass.Info.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				if types.IsInterface(sel.Recv()) {
					c.deref(fun.X, "interface method call")
				}
			case types.FieldVal:
				c.deref(fun, "call") // calling a function-valued field
			}
		}
	case *ast.Ident:
		switch c.pass.Info.Uses[fun].(type) {
		case *types.Func, *types.Builtin, nil:
			return
		}
		c.deref(fun, "call") // calling a function-typed variable
	}
}

// tracerEmit enforces the inherited niltrace contract: Emit on a
// Tracer-typed value must be proven non-nil, with unknown provenance
// counting as unguarded. Receivers the SSA builder tracks get the
// path-sensitive verdict; everything else falls back to the syntactic
// guard ranges.
func (c *nilnessCheck) tracerEmit(call *ast.CallExpr, sel *ast.SelectorExpr) {
	recv := analysis.ExprString(sel.X)
	if v := c.f.ValueOf[sel.X]; v != nil && v.Var != nil && !c.facts[v.ID].MayBeNil() {
		return
	}
	if c.guardedAt(recv, call.Pos()) {
		return
	}
	c.pass.Reportf(call.Pos(),
		"%s.Emit called without a nil guard: %s has interface type Tracer and is nil for untraced runs; wrap in `if %s != nil` or use telemetry.Emit",
		recv, recv, recv)
}

// deref reports when a nil definition reaches expr at a dereference.
func (c *nilnessCheck) deref(expr ast.Expr, shape string) {
	v := c.f.ValueOf[ast.Unparen(expr)]
	if v == nil {
		v = c.f.ValueOf[expr]
	}
	if v == nil {
		return
	}
	st := c.facts[v.ID]
	if st&ssa.NilBit == 0 {
		return
	}
	// The CFG does not split && / || operands into blocks, so a guard
	// and a use inside one condition share a block and the refinement is
	// invisible to the solver. The short-circuit guards collected from
	// this unit recover exactly that case.
	if c.guardedAt(analysis.ExprString(expr), expr.Pos()) {
		return
	}
	name := analysis.ExprString(expr)
	if v.Var != nil {
		name = v.Var.Name
	}
	if st.IsNil() {
		c.pass.Reportf(expr.Pos(),
			"%s is nil on every path reaching this %s; this panics at run time", name, shape)
	} else {
		c.pass.Reportf(expr.Pos(),
			"%s may be nil at this %s (nil on at least one path); add a nil check", name, shape)
	}
}

// ---------------------------------------------------------------------
// Syntactic Tracer-guard fallback (inherited from niltrace)

// nilGuard is one region of a function where expr is known non-nil.
type nilGuard struct {
	expr     string
	from, to token.Pos
}

// collectNilGuards scans every function of the package for syntactic nil
// guards: `if x != nil { body }` makes x non-nil inside the body, and an
// `if x == nil { return/panic }` early exit makes it non-nil through the
// rest of the function. Guard ranges never extend past their function,
// so one package-wide list is safe.
func collectNilGuards(pass *analysis.Pass) []nilGuard {
	var guards []nilGuard
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				ifs, ok := n.(*ast.IfStmt)
				if !ok {
					return true
				}
				for _, e := range nilComparisons(ifs.Cond, token.NEQ) {
					guards = append(guards, nilGuard{expr: e, from: ifs.Body.Pos(), to: ifs.Body.End()})
				}
				if blockDiverges(ifs.Body) {
					for _, e := range nilComparisons(ifs.Cond, token.EQL) {
						guards = append(guards, nilGuard{expr: e, from: ifs.End(), to: fd.End()})
					}
				}
				return true
			})
		}
	}
	return guards
}

// guardedAt reports whether expr (rendered) is covered by a syntactic
// guard — an if-guard from the package scan or a short-circuit guard
// from this unit — at pos.
func (c *nilnessCheck) guardedAt(expr string, pos token.Pos) bool {
	for _, g := range c.guards {
		if g.expr == expr && g.from <= pos && pos < g.to {
			return true
		}
	}
	for _, g := range c.local {
		if g.expr == expr && g.from <= pos && pos < g.to {
			return true
		}
	}
	return false
}

// collectCondGuards finds short-circuit guards inside a single unit:
// in `x != nil && use(x)` the right operand only evaluates with x
// non-nil, and dually for `x == nil || use(x)`. Unlike nilComparisons,
// only operands that dominate the right-hand side count: conjuncts of
// an && chain (each must be true for the RHS to run) and disjuncts of
// an || chain (each must be false) — a comparison nested under the
// opposite operator guarantees nothing.
func collectCondGuards(body ast.Node) []nilGuard {
	var out []nilGuard
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.LAND && be.Op != token.LOR) {
			return true
		}
		for _, e := range dominantNilChecks(be.X, be.Op) {
			out = append(out, nilGuard{expr: e, from: be.Y.Pos(), to: be.Y.End()})
		}
		return true
	})
	return out
}

// dominantNilChecks extracts the expressions proven non-nil whenever
// evaluation continues past cond in a chain of op: for && these are the
// `x != nil` conjuncts, for || the `x == nil` disjuncts.
func dominantNilChecks(cond ast.Expr, op token.Token) []string {
	cmp := token.NEQ
	if op == token.LOR {
		cmp = token.EQL
	}
	var out []string
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		be, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok {
			return
		}
		switch be.Op {
		case op:
			walk(be.X)
			walk(be.Y)
		case cmp:
			if isNilIdent(be.Y) {
				out = append(out, analysis.ExprString(be.X))
			} else if isNilIdent(be.X) {
				out = append(out, analysis.ExprString(be.Y))
			}
		}
	}
	walk(cond)
	return out
}

// nilComparisons returns the rendered expressions compared against nil
// with the given operator anywhere inside cond (through && / || / parens).
func nilComparisons(cond ast.Expr, op token.Token) []string {
	var out []string
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != op {
			return true
		}
		if isNilIdent(be.Y) {
			out = append(out, analysis.ExprString(be.X))
		} else if isNilIdent(be.X) {
			out = append(out, analysis.ExprString(be.Y))
		}
		return true
	})
	return out
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// blockDiverges reports whether the block's last statement leaves the
// enclosing scope (return, panic, continue, break, goto), making an
// `== nil` check an early-exit guard.
func blockDiverges(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	default:
		return false
	}
}

// isTracerInterface reports whether t is an interface type named Tracer
// (the telemetry.Tracer contract, or a fixture-local equivalent).
func isTracerInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	named := analysis.NamedOf(t)
	if named == nil || named.Obj().Name() != "Tracer" {
		return false
	}
	_, isIface := named.Underlying().(*types.Interface)
	return isIface
}
