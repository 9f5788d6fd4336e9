// Package callgraph builds an interprocedural, CHA-style call graph over
// the packages of one skylint run, without golang.org/x/tools.
//
// Nodes are keyed by stable string IDs — "pkg/path.Func",
// "pkg/path.(Type).Method", "pkg/path.Func.func1" — not by types.Object:
// the IDs sort into a deterministic node order and read as-is in the
// `skylint -callgraph` dump. Dynamic call targets are matched
// by signature *strings* (rendered with a package-path qualifier) for the
// same determinism.
//
// Resolution strategy, in CHA spirit (sound-ish over-approximation,
// never context sensitive):
//
//   - static calls (package functions, concrete methods) resolve to the
//     named function directly;
//   - interface method calls resolve to every program method with the
//     same name and signature;
//   - calls through function values resolve to every address-taken
//     program function or literal with the same signature;
//   - every function literal gets a "closure" edge from its enclosing
//     function, so a literal handed to a helper (sort.Slice, shard) is
//     reachable whenever its creator is.
//
// Calls that leave the program (standard library, unresolved dynamics)
// get no edge.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"crowdsky/internal/lint/analysis"
)

// EdgeKind classifies how a call site was resolved.
type EdgeKind uint8

const (
	// EdgeStatic is a direct call to a named function or concrete method.
	EdgeStatic EdgeKind = iota
	// EdgeClosure links a function to a literal declared in its body:
	// not a call per se, but the literal runs whenever some helper the
	// function handed it to decides to invoke it.
	EdgeClosure
	// EdgeInterface is a call through an interface method, resolved by
	// name + signature matching against every program method.
	EdgeInterface
	// EdgeDynamic is a call through a function value, resolved by
	// signature matching against address-taken functions and literals.
	EdgeDynamic
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeClosure:
		return "closure"
	case EdgeInterface:
		return "interface"
	case EdgeDynamic:
		return "dynamic"
	default:
		return "unknown"
	}
}

// Node is one program function: a declared function or method, or a
// function literal.
type Node struct {
	// ID is the stable identity: "pkg/path.Func", "pkg/path.(T).Method",
	// or "<parent id>.funcN" for the N-th literal in parent's body.
	ID string
	// Name is the short form used in findings:
	// "core.apply", "(skyline.Index).FreqCounter", "core.apply.func1".
	Name string
	// PkgPath is the import path of the defining package.
	PkgPath string
	// Decl is the declaration for named functions; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal for closure nodes; nil for named functions.
	Lit *ast.FuncLit
	// Body is the function body; nil for bodyless declarations.
	Body *ast.BlockStmt
	// Pass is the analysis pass of the defining package — the one whose
	// Info covers Body and whose suppression comments apply here.
	Pass *analysis.Pass
	// Out are the resolved call edges, sorted by site position then
	// callee ID. Deterministic across runs.
	Out []*Edge

	sig          string // signature string, receiver excluded
	methodName   string // method name if this is a method, else ""
	addressTaken bool   // referenced outside call position, or a literal
}

// IsMethod reports whether the node is a method (named, with receiver).
func (n *Node) IsMethod() bool { return n.methodName != "" }

// Edge is one resolved call (or closure-containment) relation.
type Edge struct {
	Callee *Node
	// Site is the position of the call expression (or the literal, for
	// closure edges) inside the caller.
	Site token.Pos
	Kind EdgeKind
}

// Graph is the finished call graph.
type Graph struct {
	// Nodes is every program function, sorted by ID.
	Nodes []*Node

	byID map[string]*Node
}

// Builder accumulates passes and constructs the Graph once.
//
// The intended use is through a shared Program fact: every interprocedural
// analyzer calls Shared(pass) from its Run hook, so each package is
// scanned once no matter how many analyzers need the graph, and the first
// Finish hook to ask for Graph() pays the one-time resolution cost.
type Builder struct {
	passes []*analysis.Pass
	seen   map[string]bool
	graph  *Graph
}

// builderFactKey keys the shared Builder in the run's Program fact store.
const builderFactKey = "callgraph.builder"

// Shared returns the run-wide Builder, creating it on first use, and adds
// pass's package to it (deduplicated by package path).
func Shared(pass *analysis.Pass) *Builder {
	b := pass.Program().Fact(builderFactKey, func() any {
		return &Builder{seen: make(map[string]bool)}
	}).(*Builder)
	b.AddPass(pass)
	return b
}

// AddPass registers one package. Repeat additions of the same package
// path (by other analyzers of the same run) are ignored.
func (b *Builder) AddPass(pass *analysis.Pass) {
	if b.seen[pass.PkgPath] {
		return
	}
	b.seen[pass.PkgPath] = true
	b.passes = append(b.passes, pass)
	b.graph = nil
}

// Graph resolves and returns the call graph. The result is cached; the
// cache is invalidated by AddPass.
func (b *Builder) Graph() *Graph {
	if b.graph != nil {
		return b.graph
	}
	g := &Graph{
		byID: make(map[string]*Node),
	}
	// Passes in deterministic order regardless of analyzer scheduling.
	passes := append([]*analysis.Pass(nil), b.passes...)
	sort.Slice(passes, func(i, j int) bool { return passes[i].PkgPath < passes[j].PkgPath })

	var sc scanner
	sc.graph = g
	for _, pass := range passes {
		sc.collectNodes(pass)
	}
	sort.Slice(g.Nodes, func(i, j int) bool { return g.Nodes[i].ID < g.Nodes[j].ID })
	for _, pass := range passes {
		sc.scanPackage(pass)
	}
	sc.resolve()
	for _, n := range g.Nodes {
		sort.Slice(n.Out, func(i, j int) bool {
			if n.Out[i].Site != n.Out[j].Site {
				return n.Out[i].Site < n.Out[j].Site
			}
			return n.Out[i].Callee.ID < n.Out[j].Callee.ID
		})
	}
	b.graph = g
	return g
}

// scanner holds the intermediate state of one graph construction.
type scanner struct {
	graph *Graph
	// litNodes maps every function literal to its node.
	litNodes map[*ast.FuncLit]*Node
	// dynCalls and ifaceCalls are deferred until every package's nodes
	// and address-taken marks exist.
	dynCalls   []pendingCall
	ifaceCalls []pendingCall
}

// pendingCall is a dynamic or interface call awaiting resolution.
type pendingCall struct {
	caller *Node
	site   token.Pos
	// name is the method name for interface calls; empty for function
	// values.
	name string
	// sig is the signature string of the callee (receiver excluded).
	sig string
}

// collectNodes creates one node per declared function and per function
// literal of the package.
func (sc *scanner) collectNodes(pass *analysis.Pass) {
	if sc.litNodes == nil {
		sc.litNodes = make(map[*ast.FuncLit]*Node)
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				n := sc.addDecl(pass, decl)
				sc.addLits(pass, n, decl.Body)
			case *ast.GenDecl:
				// Literals in var initializers hang off a per-package
				// pseudo-node so closure edges still have a parent.
				if containsFuncLit(decl) {
					sc.addLits(pass, sc.initNode(pass), decl)
				}
			}
		}
	}
}

// initNode returns (creating on demand) the pseudo-node that owns
// package-level literals of pass's package.
func (sc *scanner) initNode(pass *analysis.Pass) *Node {
	id := pass.PkgPath + ".init"
	if n := sc.graph.byID[id]; n != nil {
		return n
	}
	n := &Node{
		ID:      id,
		Name:    pass.Pkg.Name() + ".init",
		PkgPath: pass.PkgPath,
		Pass:    pass,
	}
	sc.graph.byID[id] = n
	sc.graph.Nodes = append(sc.graph.Nodes, n)
	return n
}

func (sc *scanner) addDecl(pass *analysis.Pass, decl *ast.FuncDecl) *Node {
	obj, _ := pass.Info.Defs[decl.Name].(*types.Func)
	n := &Node{
		PkgPath: pass.PkgPath,
		Decl:    decl,
		Body:    decl.Body,
		Pass:    pass,
	}
	pkgName := pass.Pkg.Name()
	if decl.Recv != nil && len(decl.Recv.List) > 0 {
		recvName := recvTypeName(pass, decl.Recv.List[0].Type)
		n.ID = pass.PkgPath + ".(" + recvName + ")." + decl.Name.Name
		n.Name = "(" + pkgName + "." + recvName + ")." + decl.Name.Name
		n.methodName = decl.Name.Name
	} else {
		n.ID = pass.PkgPath + "." + decl.Name.Name
		n.Name = pkgName + "." + decl.Name.Name
	}
	if obj != nil {
		if sig, ok := obj.Type().(*types.Signature); ok {
			n.sig = sigString(sig)
		}
	}
	sc.graph.byID[n.ID] = n
	sc.graph.Nodes = append(sc.graph.Nodes, n)
	return n
}

// addLits creates nodes for every function literal under root (including
// literals nested in other literals), parented transitively.
func (sc *scanner) addLits(pass *analysis.Pass, parent *Node, root ast.Node) {
	if root == nil {
		return
	}
	count := 0
	var walk func(ast.Node, *Node)
	walk = func(nd ast.Node, par *Node) {
		ast.Inspect(nd, func(x ast.Node) bool {
			lit, ok := x.(*ast.FuncLit)
			if !ok {
				return true
			}
			count++
			ln := &Node{
				ID:      fmt.Sprintf("%s.func%d", par.ID, count),
				Name:    fmt.Sprintf("%s.func%d", par.Name, count),
				PkgPath: pass.PkgPath,
				Lit:     lit,
				Body:    lit.Body,
				Pass:    pass,
				// Literals are always address-taken: they exist to be
				// passed or stored.
				addressTaken: true,
			}
			if sig, ok := pass.Info.TypeOf(lit).(*types.Signature); ok {
				ln.sig = sigString(sig)
			}
			sc.graph.byID[ln.ID] = ln
			sc.graph.Nodes = append(sc.graph.Nodes, ln)
			sc.litNodes[lit] = ln
			walk(lit.Body, ln)
			return false // nested literals handled by the recursive walk
		})
	}
	walk(root, parent)
}

// scanPackage records call edges and address-taken marks for every
// function body of the package. Nodes of all packages must already exist.
func (sc *scanner) scanPackage(pass *analysis.Pass) {
	for _, file := range pass.Files {
		sc.markAddressTaken(pass, file)
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if n := sc.declNode(pass, decl); n != nil {
					sc.scanBody(n)
				}
			case *ast.GenDecl:
				ast.Inspect(decl, func(x ast.Node) bool {
					if lit, ok := x.(*ast.FuncLit); ok {
						sc.addEdge(sc.initNode(pass), sc.litNodes[lit], lit.Pos(), EdgeClosure)
						return false
					}
					return true
				})
			}
		}
	}
}

func (sc *scanner) declNode(pass *analysis.Pass, decl *ast.FuncDecl) *Node {
	var id string
	if decl.Recv != nil && len(decl.Recv.List) > 0 {
		id = pass.PkgPath + ".(" + recvTypeName(pass, decl.Recv.List[0].Type) + ")." + decl.Name.Name
	} else {
		id = pass.PkgPath + "." + decl.Name.Name
	}
	return sc.graph.byID[id]
}

// markAddressTaken flags every program function referenced outside call
// position anywhere in file: a plain mention of f or x.m yields a value
// that may be called later through any matching function-typed variable.
func (sc *scanner) markAddressTaken(pass *analysis.Pass, file *ast.File) {
	inCall := make(map[*ast.Ident]bool)
	ast.Inspect(file, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			inCall[fun] = true
		case *ast.SelectorExpr:
			inCall[fun.Sel] = true
		}
		return true
	})
	ast.Inspect(file, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok || inCall[id] {
			return true
		}
		fn, ok := pass.Info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if n := sc.graph.byID[funcID(fn)]; n != nil {
			n.addressTaken = true
		}
		return true
	})
}

// scanBody walks one function unit's body, stopping at nested literals
// (they are their own nodes, connected by closure edges).
func (sc *scanner) scanBody(n *Node) {
	if n.Body == nil {
		return
	}
	ast.Inspect(n.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			sc.addEdge(n, sc.litNodes[x], x.Pos(), EdgeClosure)
			return false
		case *ast.CallExpr:
			sc.recordCall(n, x)
		}
		return true
	})
}

func (sc *scanner) addEdge(caller, callee *Node, site token.Pos, kind EdgeKind) {
	if caller == nil || callee == nil {
		return
	}
	caller.Out = append(caller.Out, &Edge{Callee: callee, Site: site, Kind: kind})
}

// recordCall classifies one call expression inside n.
func (sc *scanner) recordCall(n *Node, call *ast.CallExpr) {
	pass := n.Pass
	fun := ast.Unparen(call.Fun)
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	switch fun := fun.(type) {
	case *ast.FuncLit:
		// Immediately-invoked literal: also a static edge (the closure
		// edge from scanBody covers reachability; skip the duplicate).
		return
	case *ast.Ident:
		switch obj := pass.Info.Uses[fun].(type) {
		case *types.Builtin:
			return // append/make/len/...: allocation concerns, not calls
		case *types.Func:
			sc.staticCall(n, call.Pos(), obj, false)
		default:
			// Function-typed variable (parameter, local, package var).
			sc.dynamicCall(n, call.Pos(), pass.Info.TypeOf(fun))
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				callee, _ := sel.Obj().(*types.Func)
				if callee == nil {
					return
				}
				if types.IsInterface(sel.Recv()) {
					sc.interfaceCall(n, call.Pos(), callee)
				} else {
					sc.staticCall(n, call.Pos(), callee, false)
				}
			case types.FieldVal:
				// Struct field holding a function value.
				sc.dynamicCall(n, call.Pos(), sel.Type())
			}
			return
		}
		// Qualified identifier: pkg.F(...).
		switch obj := pass.Info.Uses[fun.Sel].(type) {
		case *types.Func:
			sc.staticCall(n, call.Pos(), obj, false)
		case *types.Builtin:
			return
		default:
			sc.dynamicCall(n, call.Pos(), pass.Info.TypeOf(fun))
		}
	default:
		// Any other function-typed expression: slice of funcs, call
		// returning a func, method expression value, ...
		sc.dynamicCall(n, call.Pos(), pass.Info.TypeOf(fun))
	}
}

// staticCall links n to a named function when the target is in the
// program.
func (sc *scanner) staticCall(n *Node, site token.Pos, callee *types.Func, viaIface bool) {
	if target := sc.graph.byID[funcID(callee)]; target != nil {
		kind := EdgeStatic
		if viaIface {
			kind = EdgeInterface
		}
		sc.addEdge(n, target, site, kind)
	}
}

// interfaceCall defers name+signature matching until all packages are
// scanned.
func (sc *scanner) interfaceCall(n *Node, site token.Pos, callee *types.Func) {
	sig, _ := callee.Type().(*types.Signature)
	if sig == nil {
		return
	}
	sc.ifaceCalls = append(sc.ifaceCalls, pendingCall{
		caller: n,
		site:   site,
		name:   callee.Name(),
		sig:    sigString(sig),
	})
}

// dynamicCall defers signature matching against address-taken functions.
func (sc *scanner) dynamicCall(n *Node, site token.Pos, t types.Type) {
	if t == nil {
		return
	}
	sig, _ := t.Underlying().(*types.Signature)
	if sig == nil {
		return
	}
	sc.dynCalls = append(sc.dynCalls, pendingCall{caller: n, site: site, sig: sigString(sig)})
}

// resolve links the deferred interface and function-value calls.
func (sc *scanner) resolve() {
	g := sc.graph
	// Index methods by name+sig and address-taken functions by sig. The
	// node slice is already sorted by ID, so the candidate lists — and
	// with them the emitted edges — are deterministic.
	methods := make(map[string][]*Node)
	taken := make(map[string][]*Node)
	for _, n := range g.Nodes {
		if n.IsMethod() {
			methods[n.methodName+n.sig] = append(methods[n.methodName+n.sig], n)
		}
		if n.addressTaken && n.sig != "" {
			taken[n.sig] = append(taken[n.sig], n)
		}
	}
	for i := range sc.ifaceCalls {
		c := &sc.ifaceCalls[i]
		for _, target := range methods[c.name+c.sig] {
			sc.addEdge(c.caller, target, c.site, EdgeInterface)
		}
	}
	for i := range sc.dynCalls {
		c := &sc.dynCalls[i]
		for _, target := range taken[c.sig] {
			sc.addEdge(c.caller, target, c.site, EdgeDynamic)
		}
	}
}

// containsFuncLit reports whether any function literal occurs under nd.
func containsFuncLit(nd ast.Node) bool {
	found := false
	ast.Inspect(nd, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			found = true
		}
		return !found
	})
	return found
}

// funcID derives the stable node ID for a named function object. It only
// uses package paths and names, so the ID is the same in every run and
// orders the graph's nodes.
func funcID(fn *types.Func) string {
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if named := analysis.NamedOf(sig.Recv().Type()); named != nil {
			return pkgPath + ".(" + named.Obj().Name() + ")." + fn.Name()
		}
		return pkgPath + ".(?)." + fn.Name()
	}
	return pkgPath + "." + fn.Name()
}

// recvTypeName extracts the receiver type's name from its AST (the
// types.Info of the declaring package may lack an entry for bodyless
// declarations, so this stays syntactic).
func recvTypeName(pass *analysis.Pass, expr ast.Expr) string {
	switch expr := expr.(type) {
	case *ast.StarExpr:
		return recvTypeName(pass, expr.X)
	case *ast.Ident:
		return expr.Name
	case *ast.IndexExpr: // generic receiver: T[P]
		return recvTypeName(pass, expr.X)
	case *ast.IndexListExpr:
		return recvTypeName(pass, expr.X)
	default:
		return analysis.ExprString(expr)
	}
}

// sigString renders a signature (receiver excluded) with full package
// paths, so two views of the same function — or two compatible
// functions — produce identical strings.
func sigString(sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	b.WriteByte('(')
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		t := params.At(i).Type()
		if sig.Variadic() && i == params.Len()-1 {
			b.WriteString("...")
			if sl, ok := t.(*types.Slice); ok {
				t = sl.Elem()
			}
		}
		b.WriteString(types.TypeString(t, qual))
	}
	b.WriteByte(')')
	results := sig.Results()
	if results.Len() > 0 {
		b.WriteByte('(')
		for i := 0; i < results.Len(); i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(types.TypeString(results.At(i).Type(), qual))
		}
		b.WriteByte(')')
	}
	return b.String()
}

// Dump writes the graph in a stable text form: one line per node
// (its ID) and an indented line per outgoing edge. cmd/skylint
// -callgraph prints this.
func (g *Graph) Dump(w *strings.Builder) {
	for _, n := range g.Nodes {
		fmt.Fprintf(w, "%s\n", n.ID)
		for _, e := range n.Out {
			fmt.Fprintf(w, "  -> %s (%s)\n", e.Callee.ID, e.Kind)
		}
	}
}
