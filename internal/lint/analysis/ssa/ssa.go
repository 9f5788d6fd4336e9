// Pruned-SSA construction over the cfg package's basic blocks.
//
// The builder assigns a Value to every expression the CFG evaluates and
// threads variable versions through the graph: definitions push new
// versions, joins get phi nodes (placed on the dominance frontier, pruned
// by liveness), and conditional branches get pi nodes — copies of a
// variable refined by the branch condition (`if x != nil` yields a
// version of x known non-nil in the then-block). Analyzers consume the
// result through Func.ValueOf (expression → abstract value) and the
// def-use chains (Value.Args / Value.Uses), typically by running a
// lattice Problem over them (see lattice.go).
//
// Tracked variables are the function's receiver, parameters, named
// results and body-level locals that are never address-taken outside a
// direct call argument and never captured by a closure, plus selector
// paths (x.f.g) that the function compares against nil, so a guard on a
// field refines it like a local. Everything else evaluates
// to opaque values, which the lattices treat as unknown: the builder
// trades completeness for never claiming a fact it cannot prove.
//
// Known approximations, chosen deliberately for a linter:
//   - range Key/Value variables are defined once where the range operand
//     is evaluated, not per iteration;
//   - field paths are not invalidated by method calls on their base,
//     only by direct assignment, `&x.f` call arguments, and base
//     redefinition;
//   - type-switch case variables are opaque (go/types records them as
//     implicit objects the loader does not capture).
package ssa

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"crowdsky/internal/lint/analysis/cfg"
)

// Kind classifies a Value.
type Kind uint8

const (
	// KUndef is a defensive "no definition reaches here" value.
	KUndef Kind = iota
	// KParam is a parameter, receiver, or the entry value of a tracked
	// selector path.
	KParam
	// KConst is a typed or untyped constant, including nil and the
	// implicit zero of `var x T`.
	KConst
	// KPhi merges versions at a join; Args are ordered by the block's
	// predecessor edges.
	KPhi
	// KPi is a branch-refined copy of Args[0]; Refine holds the
	// comparison known true on this edge.
	KPi
	// KCall is a call or conversion result (the whole tuple when the
	// callee returns multiple values).
	KCall
	// KExtract is result Index of the multi-result call Args[0].
	KExtract
	// KOutDef is the value a variable holds after being passed as &x to
	// the call Args[0].
	KOutDef
	// KExpr is any other expression: arithmetic, loads, literals,
	// comma-ok halves, opaque identifiers.
	KExpr
)

// Refinement is the comparison a KPi value is known to satisfy, with the
// refined variable normalized to the left-hand side.
type Refinement struct {
	Op token.Token // EQL, NEQ, LSS, LEQ, GTR, GEQ
	Y  *Value      // right operand
}

// VarInfo identifies a tracked variable: a plain object (Path == "") or
// a selector path rooted at one.
type VarInfo struct {
	Obj  types.Object
	Path string // ".f.g" for selector paths
	Name string // rendering for diagnostics: "x" or "x.f.g"
	Type types.Type
}

// Value is one SSA value.
type Value struct {
	ID    int
	Kind  Kind
	Node  ast.Node // defining syntax; may be nil for entry values
	Block int      // defining block's cfg index
	Type  types.Type
	Args  []*Value
	Uses  []*Value // values consuming this one, in ID order
	Var   *VarInfo // the variable this value versions, if any

	IsNil    bool           // KConst: the nil constant / nilable zero value
	IsZero   bool           // KConst: implicit zero of `var x T`
	ConstVal constant.Value // KConst: folded constant, nil for nil/zero

	Callee    *types.Func // KCall: static callee when resolvable
	Builtin   string      // KCall: builtin name ("make", "append", ...)
	IsConvert bool        // KCall: type conversion, Args[0] is the operand

	Index  int         // KExtract: tuple index
	Refine *Refinement // KPi
}

// Pos returns the best source position for the value.
func (v *Value) Pos() token.Pos {
	if v.Node != nil {
		return v.Node.Pos()
	}
	return token.NoPos
}

// Func is the SSA form of one function body.
type Func struct {
	Graph *cfg.Graph
	Dom   *DomTree
	// Values lists every value in creation order (ID order).
	Values []*Value
	// ValueOf maps each evaluated expression to its abstract value.
	// Expressions in unreachable code have no entry.
	ValueOf map[ast.Expr]*Value
	// Phis lists the phi nodes placed in each block, by block index.
	Phis map[int][]*Value
	// ReturnVals maps each reachable return statement to the values it
	// returns (resolved through named results for naked returns and
	// through extracts for `return f()` spreads).
	ReturnVals map[*ast.ReturnStmt][]*Value
	// Params holds the KParam values for receiver + parameters, in
	// signature order.
	Params []*Value
	// Vars lists the tracked variables in creation order.
	Vars []*VarInfo
}

// BuildFunc builds SSA for a function declaration. A nil body (external
// or interface method) yields a trivial Func.
func BuildFunc(fd *ast.FuncDecl, info *types.Info) *Func {
	var body *ast.BlockStmt
	if fd != nil {
		body = fd.Body
	}
	var recv *ast.FieldList
	var ftyp *ast.FuncType
	if fd != nil {
		recv, ftyp = fd.Recv, fd.Type
	}
	return build(body, recv, ftyp, info)
}

// BuildLit builds SSA for a function literal. Free variables of the
// enclosing function are opaque.
func BuildLit(lit *ast.FuncLit, info *types.Info) *Func {
	return build(lit.Body, nil, lit.Type, info)
}

// varState is the builder's per-variable bookkeeping.
type varState struct {
	info  *VarInfo
	idx   int
	stack []*Value
	undef *Value
	// defBlocks/useUE drive pruned phi placement.
	defBlocks map[int]bool
	useUE     map[int]bool // blocks with an upward-exposed use
	liveIn    []bool
	entry     *Value // KParam/KConst pushed at function entry, if any
}

type builder struct {
	f    *Func
	info *types.Info

	vars    []*varState
	tracked map[types.Object]*varState
	// paths groups tracked selector paths by base object; each inner map
	// is keyed by the ".f.g" path string.
	paths map[types.Object]map[string]*varState

	rangeOf map[ast.Expr]*ast.RangeStmt
	phiVar  map[*Value]*varState

	// bodyLocals/namedResults classify tracked objects by declaration
	// site (body `:=`/var vs. signature results).
	bodyLocals   map[types.Object]bool
	namedResults map[types.Object]bool

	scanning bool // pre-scan mode: record events, build no values
	scanBlk  int
	seenDef  map[*varState]bool // per-block def-seen during pre-scan

	// renamePushes collects the varStates evalNode pushed to while
	// renaming one node, so rename can pop them at block exit.
	renamePushes []*varState
}

func build(body *ast.BlockStmt, recv *ast.FieldList, ftyp *ast.FuncType, info *types.Info) *Func {
	g := cfg.New(body)
	f := &Func{
		Graph:      g,
		Dom:        BuildDom(g),
		ValueOf:    make(map[ast.Expr]*Value),
		Phis:       make(map[int][]*Value),
		ReturnVals: make(map[*ast.ReturnStmt][]*Value),
	}
	b := &builder{
		f:            f,
		info:         info,
		tracked:      make(map[types.Object]*varState),
		paths:        make(map[types.Object]map[string]*varState),
		rangeOf:      make(map[ast.Expr]*ast.RangeStmt),
		phiVar:       make(map[*Value]*varState),
		bodyLocals:   make(map[types.Object]bool),
		namedResults: make(map[types.Object]bool),
	}
	b.collectVars(body, recv, ftyp)
	b.preScan()
	b.liveness()
	b.placePhis()
	b.rename(g.Entry.Index)
	for _, v := range f.Values {
		for _, a := range v.Args {
			if a != nil {
				a.Uses = append(a.Uses, v)
			}
		}
	}
	return f
}

// ---------------------------------------------------------------------
// Variable discovery

func (b *builder) newVar(obj types.Object, path, name string, typ types.Type) *varState {
	vi := &VarInfo{Obj: obj, Path: path, Name: name, Type: typ}
	vs := &varState{
		info:      vi,
		idx:       len(b.vars),
		defBlocks: make(map[int]bool),
		useUE:     make(map[int]bool),
	}
	b.vars = append(b.vars, vs)
	b.f.Vars = append(b.f.Vars, vi)
	if path == "" {
		b.tracked[obj] = vs
	} else {
		m := b.paths[obj]
		if m == nil {
			m = make(map[string]*varState)
			b.paths[obj] = m
		}
		m[path] = vs
	}
	return vs
}

// collectVars decides which objects get SSA versions: signature
// variables plus body-level locals, minus anything address-taken outside
// a call argument or captured by a closure; then the selector paths the
// body compares against nil.
func (b *builder) collectVars(body *ast.BlockStmt, recv *ast.FieldList, ftyp *ast.FuncType) {
	disqualified := make(map[types.Object]bool)
	candidates := make(map[types.Object]*ast.Ident)
	var order []types.Object

	addField := func(fl *ast.FieldList, results bool) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if name.Name == "_" {
					continue
				}
				if obj := b.info.Defs[name]; obj != nil {
					if _, ok := candidates[obj]; !ok {
						candidates[obj] = name
						order = append(order, obj)
						if results {
							b.namedResults[obj] = true
						}
					}
				}
			}
		}
	}
	addField(recv, false)
	if ftyp != nil {
		addField(ftyp.Params, false)
		addField(ftyp.Results, true)
	}

	if body != nil {
		// Locals: Defs anywhere in the body outside FuncLits (their
		// locals belong to their own SSA). Disqualifying uses are
		// classified in the same walk.
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				// Everything referenced inside is captured.
				ast.Inspect(n.Body, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if obj := b.info.Uses[id]; obj != nil {
							disqualified[obj] = true
						}
					}
					return true
				})
				return false
			case *ast.Ident:
				if obj, ok := b.info.Defs[n].(*types.Var); ok && n.Name != "_" {
					if _, seen := candidates[obj]; !seen {
						candidates[obj] = n
						order = append(order, obj)
						b.bodyLocals[obj] = true
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if !b.isCallArg(body, n) {
						if base := baseIdent(n.X); base != nil {
							if obj := b.info.Uses[base]; obj != nil {
								disqualified[obj] = true
							}
						}
					}
				}
			case *ast.RangeStmt:
				b.rangeOf[n.X] = n
			}
			return true
		})
	}

	for _, obj := range order {
		if disqualified[obj] {
			continue
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			continue
		}
		b.newVar(obj, "", obj.Name(), obj.Type())
	}

	// Selector paths compared against nil.
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		for _, pair := range [][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
			if !isNilIdent(b.info, pair[1]) {
				continue
			}
			sel, ok := unparen(pair[0]).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			base, path, name := b.pathKey(sel)
			if base == nil {
				continue
			}
			vs := b.tracked[base]
			if vs == nil {
				continue // base itself is untracked
			}
			if b.paths[base][path] == nil {
				typ := typeOf(b.info, sel)
				b.newVar(base, path, name, typ)
			}
		}
		return true
	})
}

// isCallArg reports whether n appears directly (modulo parens) in some
// call's argument list within body.
func (b *builder) isCallArg(body *ast.BlockStmt, n *ast.UnaryExpr) bool {
	found := false
	ast.Inspect(body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		for _, a := range call.Args {
			if unparen(a) == n {
				found = true
			}
		}
		return !found
	})
	return found
}

// pathKey decomposes x.f.g into its base object and path string. Every
// step must be a plain field selection on a non-field variable base.
func (b *builder) pathKey(sel *ast.SelectorExpr) (base types.Object, path, name string) {
	var fields []string
	e := ast.Expr(sel)
	for {
		s, ok := unparen(e).(*ast.SelectorExpr)
		if !ok {
			break
		}
		selInfo := b.info.Selections[s]
		if selInfo == nil || selInfo.Kind() != types.FieldVal {
			return nil, "", ""
		}
		fields = append([]string{s.Sel.Name}, fields...)
		e = s.X
	}
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return nil, "", ""
	}
	obj, ok := b.info.Uses[id].(*types.Var)
	if !ok || obj.IsField() {
		return nil, "", ""
	}
	return obj, "." + strings.Join(fields, "."), id.Name + "." + strings.Join(fields, ".")
}

func (b *builder) trackedOf(obj types.Object) *varState {
	if obj == nil {
		return nil
	}
	return b.tracked[obj]
}

func (b *builder) pathOf(sel *ast.SelectorExpr) *varState {
	base, path, _ := b.pathKey(sel)
	if base == nil {
		return nil
	}
	return b.paths[base][path]
}

// ---------------------------------------------------------------------
// Pre-scan: per-block def/upward-exposed-use sets for pruned phis

func (b *builder) preScan() {
	b.scanning = true
	b.seenDef = make(map[*varState]bool)
	for _, blk := range b.f.Graph.Blocks {
		if !b.f.Dom.Reachable[blk.Index] {
			continue
		}
		b.scanBlk = blk.Index
		clear(b.seenDef)
		// Pi nodes on the incoming branch edge define new versions at
		// block entry (and read the incoming one), before the block's own
		// nodes. Without these events, phi placement misses the merge a
		// refinement needs when its branch rejoins the unrefined path.
		if preds := b.f.Dom.Preds[blk.Index]; len(preds) == 1 && b.f.Dom.Reachable[preds[0]] {
			atoms, _ := b.edgeAtoms(preds[0], blk.Index)
			for _, a := range atoms {
				b.scanUse(a.vs)
				b.scanDef(a.vs)
			}
		}
		for _, n := range blk.Nodes {
			b.evalNode(blk.Index, n)
		}
	}
	b.scanning = false

	// Entry definitions: signature variables and path entry values.
	entry := b.f.Graph.Entry.Index
	for _, vs := range b.vars {
		if b.hasEntryValue(vs) {
			vs.defBlocks[entry] = true
		}
	}
}

// hasEntryValue reports whether vs is defined implicitly at function
// entry: receiver/params/named results (signature objects) and selector
// paths (the field's value on entry). Body locals are not — Go's
// definite-assignment rules guarantee their first definition dominates
// every use.
func (b *builder) hasEntryValue(vs *varState) bool {
	return vs.info.Path != "" || !b.bodyLocals[vs.info.Obj]
}

func (b *builder) scanUse(vs *varState) {
	if vs == nil {
		return
	}
	if !b.seenDef[vs] && !vs.useUE[b.scanBlk] {
		vs.useUE[b.scanBlk] = true
	}
}

func (b *builder) scanDef(vs *varState) {
	if vs == nil {
		return
	}
	b.seenDef[vs] = true
	vs.defBlocks[b.scanBlk] = true
}

// ---------------------------------------------------------------------
// Liveness + phi placement

func (b *builder) liveness() {
	n := len(b.f.Graph.Blocks)
	preds := b.f.Dom.Preds
	for _, vs := range b.vars {
		vs.liveIn = make([]bool, n)
		work := make([]int, 0, n)
		for blk := range vs.useUE {
			if !vs.liveIn[blk] {
				vs.liveIn[blk] = true
				work = append(work, blk)
			}
		}
		sortInts(work)
		for len(work) > 0 {
			blk := work[len(work)-1]
			work = work[:len(work)-1]
			for _, p := range preds[blk] {
				if !b.f.Dom.Reachable[p] || vs.liveIn[p] || vs.defBlocks[p] {
					continue
				}
				// Live out of p and not defined in p => live into p.
				// (Defs mid-block make this an over-approximation, which
				// only ever adds phis, never drops one.)
				vs.liveIn[p] = true
				work = append(work, p)
			}
		}
	}
}

func (b *builder) placePhis() {
	dom := b.f.Dom
	for _, vs := range b.vars {
		hasPhi := make(map[int]bool)
		work := make([]int, 0, len(vs.defBlocks))
		for blk := range vs.defBlocks {
			work = append(work, blk)
		}
		sortInts(work)
		for len(work) > 0 {
			blk := work[len(work)-1]
			work = work[:len(work)-1]
			if !dom.Reachable[blk] {
				continue
			}
			for _, fr := range dom.Frontier[blk] {
				if hasPhi[fr] || !vs.liveIn[fr] {
					continue
				}
				hasPhi[fr] = true
				phi := b.newValue(KPhi, nil, fr, vs.info.Type)
				phi.Var = vs.info
				phi.Args = make([]*Value, len(dom.Preds[fr]))
				b.f.Phis[fr] = append(b.f.Phis[fr], phi)
				b.phiVar[phi] = vs
				if !vs.defBlocks[fr] {
					vs.defBlocks[fr] = true
					work = append(work, fr)
					sortInts(work)
				}
			}
		}
	}
	// Stable in-block phi order: by variable index.
	for blk := range b.f.Phis {
		phis := b.f.Phis[blk]
		sort.SliceStable(phis, func(i, j int) bool {
			return b.phiVar[phis[i]].idx < b.phiVar[phis[j]].idx
		})
	}
}

// ---------------------------------------------------------------------
// Renaming

func (b *builder) newValue(k Kind, node ast.Node, blk int, typ types.Type, args ...*Value) *Value {
	v := &Value{ID: len(b.f.Values), Kind: k, Node: node, Block: blk, Type: typ}
	for _, a := range args {
		if a != nil {
			v.Args = append(v.Args, a)
		}
	}
	b.f.Values = append(b.f.Values, v)
	return v
}

func (b *builder) push(vs *varState, v *Value) {
	if v.Var == nil {
		v.Var = vs.info
	}
	vs.stack = append(vs.stack, v)
}

func (b *builder) current(blk int, vs *varState) *Value {
	if n := len(vs.stack); n > 0 {
		return vs.stack[n-1]
	}
	if vs.undef == nil {
		vs.undef = b.newValue(KUndef, nil, b.f.Graph.Entry.Index, vs.info.Type)
		vs.undef.Var = vs.info
	}
	return vs.undef
}

func (b *builder) rename(blk int) {
	marks := make([]*varState, 0, 8)
	pushMarked := func(vs *varState, v *Value) {
		b.push(vs, v)
		marks = append(marks, vs)
	}

	if blk == b.f.Graph.Entry.Index {
		b.entryDefs(pushMarked)
	}
	for _, phi := range b.f.Phis[blk] {
		pushMarked(b.phiVar[phi], phi)
	}
	for _, n := range b.f.Graph.Blocks[blk].Nodes {
		b.renamePushes = b.renamePushes[:0]
		b.evalNode(blk, n)
		for _, p := range b.renamePushes {
			marks = append(marks, p)
		}
	}

	// Fill successor phi args from the end-of-block versions.
	for _, s := range b.f.Graph.Blocks[blk].Succs {
		for _, phi := range b.f.Phis[s.Index] {
			vs := b.phiVar[phi]
			for i, p := range b.f.Dom.Preds[s.Index] {
				if p == blk {
					phi.Args[i] = b.current(blk, vs)
				}
			}
		}
	}

	for _, c := range b.f.Dom.Children[blk] {
		pis := b.createPis(blk, c)
		b.rename(c)
		for _, vs := range pis {
			vs.stack = vs.stack[:len(vs.stack)-1]
		}
	}

	for _, vs := range marks {
		vs.stack = vs.stack[:len(vs.stack)-1]
	}
}

func (b *builder) define(blk int, vs *varState, v *Value) {
	if vs == nil {
		return
	}
	if b.scanning {
		b.scanDef(vs)
		return
	}
	b.push(vs, v)
	b.renamePushes = append(b.renamePushes, vs)
}

func (b *builder) entryDefs(push func(*varState, *Value)) {
	entry := b.f.Graph.Entry.Index
	for _, vs := range b.vars {
		if !b.hasEntryValue(vs) {
			continue
		}
		var v *Value
		switch {
		case vs.info.Path != "":
			v = b.newValue(KParam, nil, entry, vs.info.Type)
		case b.namedResults[vs.info.Obj]:
			v = b.zeroConst(nil, entry, vs.info.Type)
		default:
			v = b.newValue(KParam, nil, entry, vs.info.Type)
			b.f.Params = append(b.f.Params, v)
		}
		v.Var = vs.info
		push(vs, v)
		vs.entry = v
	}
}
