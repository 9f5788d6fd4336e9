package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strconv"
	"strings"

	"crowdsky/internal/lint/analysis"
	"crowdsky/internal/lint/analysis/callgraph"
	"crowdsky/internal/lint/analysis/cfg"
)

// Lockset verifies the "skylint:guardedby <mutex>" field annotation with
// a must-hold lockset dataflow over each function's CFG, on the lock
// model it shares with lockorder (see lockFunc):
//
//   - flow sensitivity: Lock/RLock on the guard adds it to the lockset,
//     Unlock/RUnlock removes it, and at a join only locks held on every
//     incoming path survive. Accessing a guarded field after
//     mu.Unlock(), or under a lock taken in just one branch, is a
//     diagnostic.
//   - `defer mu.Unlock()` releases at function exit, so it does not end
//     the locked region.
//   - the *Locked suffix is a checked contract, not a blanket
//     exemption: a function named reapExpiredLocked may access guarded
//     fields freely, but its requirement propagates bottom-up through
//     the SCC-condensed call graph, and every call site that does not
//     hold the mutex — transitively, through other *Locked helpers —
//     is reported.
//
// The guard of a field of struct T is the mutex key pkg.T.mu, so holding
// another type's mu does not count. RLock is accepted for reads and
// writes alike.
var Lockset = &analysis.Analyzer{
	Name: "lockset",
	Doc: "fields annotated `skylint:guardedby mu` must only be accessed while " +
		"the named mutex is held on every path (must-hold lockset dataflow); " +
		"*Locked functions push the obligation to their call sites through the " +
		"call graph",
	Run:    locksetRun,
	Finish: locksetFinish,
}

func locksetRun(pass *analysis.Pass) error {
	callgraph.Shared(pass)
	finishPasses(pass, "lockset.passes")
	guarded := pass.Program().Fact("lockset.guarded", func() any {
		return make(map[types.Object]string)
	}).(map[types.Object]string)
	collectGuardAnnotations(pass, guarded, func(pos token.Pos, mu string) {
		pass.Reportf(pos, "skylint:guardedby names %q, but the struct has no such field", mu)
	})
	return nil
}

func locksetFinish(prog *analysis.Program) error {
	g, passes := lockGraph(prog, "lockset.passes")
	guarded := prog.Fact("lockset.guarded", func() any {
		return make(map[types.Object]string)
	}).(map[types.Object]string)
	if g == nil || len(guarded) == 0 {
		return nil
	}
	inline := inlineLits(passes)
	lockFuncOf := lockFuncs(guarded, inline)

	// Phase 1: bottom-up requirement summaries. Only *Locked-named
	// functions carry the caller-holds contract; everything else reports
	// its own misses in phase 2, so its summary is empty. Summaries only
	// grow, and a cyclic component reads its in-flight members as empty
	// until the fixpoint closes.
	summaries := g.BottomUp(func(n *callgraph.Node, get func(*callgraph.Node) any) any {
		if !lockedContract(n) {
			return ""
		}
		lf := lockFuncOf(n)
		if lf == nil {
			return ""
		}
		req := make(map[string]bool)
		lf.misses(func(cn *callgraph.Node) []string {
			s, _ := get(cn).(string)
			return decodeRequires(s)
		}, func(ev lockEvent, key, callee string) {
			req[key] = true
		})
		return encodeRequires(req)
	})
	requires := func(cn *callgraph.Node) []string {
		s, _ := summaries[cn].(string)
		return decodeRequires(s)
	}

	// Phase 2: report misses in every unit that does not itself carry
	// the *Locked contract. A literal that runs inline was already
	// checked as part of its enclosing function.
	for _, n := range g.Nodes {
		pass := passes[n.PkgPath]
		if pass == nil || inline[n.Lit] || lockedContract(n) {
			continue
		}
		lf := lockFuncOf(n)
		if lf == nil {
			continue
		}
		fn := nodeDesc(n)
		lf.misses(requires, func(ev lockEvent, key, callee string) {
			if ev.kind == lockAccess {
				pass.Reportf(ev.pos,
					"%s is guarded by %q (skylint:guardedby) but %s does not lock it before this access; use the accessor/Snapshot path or take the lock",
					ev.obj.Name(), lockField(key), fn)
				return
			}
			pass.Reportf(ev.pos,
				"call to %s requires %q held (skylint:guardedby): it touches guarded fields under the *Locked caller-holds contract, but %s does not lock it before this call",
				callee, lockField(key), fn)
		})
	}
	return nil
}

// lockGraph returns the run's shared call graph and the analyzer's
// passes registered under key; the graph is nil when no package ran.
func lockGraph(prog *analysis.Program, key string) (*callgraph.Graph, map[string]*analysis.Pass) {
	b, ok := prog.Fact("callgraph.builder", func() any { return nil }).(*callgraph.Builder)
	if !ok || b == nil {
		return nil, nil
	}
	passes := prog.Fact(key, func() any {
		return make(map[string]*analysis.Pass)
	}).(map[string]*analysis.Pass)
	return b.Graph(), passes
}

// lockedContract reports whether n's accesses are the caller's
// responsibility: by the standard Go convention, a name ending in
// "Locked" declares "caller holds the lock".
func lockedContract(n *callgraph.Node) bool {
	return n.Decl != nil && strings.HasSuffix(n.Decl.Name.Name, "Locked")
}

// nodeDesc names a unit in findings: a declaration by its name, a
// literal by its call-graph name (core.apply.func1).
func nodeDesc(n *callgraph.Node) string {
	if n.Decl != nil {
		return n.Decl.Name.Name
	}
	return n.Name
}

// misses replays the function and calls miss for every guarded access,
// and every call to a *Locked callee, whose mutex the function has not
// acquired itself on every path there (callee is "" for an access). A
// mutex held only under the function's own *Locked contract counts as
// missed: the obligation is its caller's.
func (lf *lockFunc) misses(requires func(*callgraph.Node) []string, miss func(ev lockEvent, key, callee string)) {
	lf.replay(mustMeet, func(ev lockEvent, must lockSet) {
		switch ev.kind {
		case lockAccess:
			if must[ev.key]&heldHere == 0 {
				miss(ev, ev.key, "")
			}
		case lockCall:
			for _, cn := range lf.sites[ev.pos] {
				for _, key := range requires(cn) {
					if must[key]&heldHere == 0 {
						miss(ev, key, cn.Name)
					}
				}
			}
		}
	})
}

func encodeRequires(req map[string]bool) string {
	keys := make([]string, 0, len(req))
	for key := range req {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

func decodeRequires(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// ---------------------------------------------------------------------
// The lock model, shared by lockset and lockorder.
//
// Each unit is a CFG whose blocks carry lock events in source order. A
// lockset maps every held mutex key to how it is held: Lock/RLock adds
// the key, Unlock/RUnlock removes it, and a deferred call changes
// nothing before exit. One transfer function is solved with two meets.
// Intersection (must-hold: held on every path) serves lockset, since a
// guarded access is safe only if every path holds its mutex. Union
// (may-hold: held on some path) serves lockorder, since one path is
// enough to deadlock: a lock taken on one branch still orders what is
// acquired after the join, and re-taking a lock that some path holds is
// a self-deadlock even when a loop's back edge releases it.
//
// A function literal that is called where it appears, deferred, or
// passed as a call argument runs inside the enclosing flow: its events
// are scanned there, in source order, and its own defers run as it
// returns. A literal that is returned, assigned or started with go is
// its own unit, entered with an empty lockset.

type lockEventKind uint8

const (
	lockAcquire lockEventKind = iota // mu.Lock() / mu.RLock()
	lockRelease                      // mu.Unlock() / mu.RUnlock()
	lockAccess                       // read or write of a guarded field
	lockCall                         // any other call (requirement discharge point)
)

type lockEvent struct {
	kind   lockEventKind
	key    string       // mutex key (lockKeyOf): the acquired or released mutex, or the accessed field's guard
	method string       // acquire: "Lock" or "RLock"
	obj    types.Object // accessed field, for the diagnostic
	pos    token.Pos
	spawn  bool // call: started by a go statement, on another goroutine
}

// lockItem is one entry of a block's event sequence: either a plain
// event or the event group of a DeferStmt subtree, which is replayed
// against a copy of the lockset at its registration point (the deferred
// body runs at exit, but a registered `defer mu.Unlock()` must not end
// the locked region for the statements that follow it).
type lockItem struct {
	ev    lockEvent
	group []lockEvent
}

// holding records how a mutex in a lockset is held.
type holding uint8

const (
	heldWrite holding = 1 << iota // by Lock, or by the caller under the *Locked contract; not RLock
	heldHere                      // acquired by this unit itself, not by its caller
)

// lockSet maps held mutex keys to how they are held.
type lockSet map[string]holding

// apply is the transfer function of one event.
func (s lockSet) apply(ev lockEvent) {
	switch ev.kind {
	case lockAcquire:
		s[ev.key] = heldHere
		if ev.method == "Lock" {
			s[ev.key] |= heldWrite
		}
	case lockRelease:
		delete(s, ev.key)
	}
}

// mustMeet keeps, in a, the mutexes both paths hold, and a holding bit
// only where both paths have it.
func mustMeet(a, b lockSet) lockSet {
	for k, h := range a {
		if hb, ok := b[k]; ok {
			a[k] = h & hb
		} else {
			delete(a, k)
		}
	}
	return a
}

// mayMeet adds to a what b holds.
func mayMeet(a, b lockSet) lockSet {
	for k, h := range b {
		a[k] |= h
	}
	return a
}

func lockSetsEqual(a, b lockSet) bool {
	return (a == nil) == (b == nil) && maps.Equal(a, b)
}

type lockFunc struct {
	g     *cfg.Graph
	items [][]lockItem
	entry lockSet
	sites map[token.Pos][]*callgraph.Node
}

// lockFuncs returns buildLockFunc over guarded and inline, built once
// per unit.
func lockFuncs(guarded map[types.Object]string, inline map[*ast.FuncLit]bool) func(*callgraph.Node) *lockFunc {
	funcs := make(map[*callgraph.Node]*lockFunc)
	return func(n *callgraph.Node) *lockFunc {
		lf, ok := funcs[n]
		if !ok {
			lf = buildLockFunc(n, guarded, inline)
			funcs[n] = lf
		}
		return lf
	}
}

// buildLockFunc scans n's CFG into lock events. Guarded-field accesses
// are recorded only for the fields in guarded (nil for none).
func buildLockFunc(n *callgraph.Node, guarded map[types.Object]string, inline map[*ast.FuncLit]bool) *lockFunc {
	if n.Body == nil || n.Pass == nil {
		return nil
	}
	lf := &lockFunc{
		g:     cfg.New(n.Body),
		entry: lockedEntry(n),
		sites: make(map[token.Pos][]*callgraph.Node),
	}
	var addSites func(*callgraph.Node)
	addSites = func(c *callgraph.Node) {
		for _, e := range c.Out {
			if e.Kind == callgraph.EdgeClosure && inline[e.Callee.Lit] {
				addSites(e.Callee) // its calls run inside this flow
				continue
			}
			lf.sites[e.Site] = append(lf.sites[e.Site], e.Callee)
		}
	}
	addSites(n)
	sc := &lockScan{pass: n.Pass, guarded: guarded, inline: inline, started: make(map[*ast.CallExpr]bool)}
	lf.items = make([][]lockItem, len(lf.g.Blocks))
	for _, blk := range lf.g.Blocks {
		for _, node := range blk.Nodes {
			lf.items[blk.Index] = sc.scanLockItems(lf.items[blk.Index], node)
		}
	}
	return lf
}

// lockedEntry is the lockset n is entered with. A *Locked method is
// entered holding its receiver's mutex fields for writing, by its
// caller: they are not heldHere, so what the body uses them for stays
// the caller's obligation. Every other unit starts empty.
func lockedEntry(n *callgraph.Node) lockSet {
	entry := lockSet{}
	if !lockedContract(n) || n.Decl.Recv == nil {
		return entry
	}
	named := analysis.NamedOf(n.Pass.TypeOf(n.Decl.Recv.List[0].Type))
	if named == nil {
		return entry
	}
	if st, ok := named.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); isMutexType(f.Type()) {
				entry[mutexKey(named.Obj(), f.Name())] = heldWrite
			}
		}
	}
	return entry
}

// lockScan turns AST nodes into lock events for one unit.
type lockScan struct {
	pass    *analysis.Pass
	guarded map[types.Object]string
	inline  map[*ast.FuncLit]bool
	started map[*ast.CallExpr]bool // calls of go statements
}

// scanLockItems appends the lock-relevant events of node in source
// order, descending into the literals that run inline.
func (sc *lockScan) scanLockItems(items []lockItem, node ast.Node) []lockItem {
	ast.Inspect(node, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if sc.inline[x] {
				for _, ev := range sc.flatten(x.Body) {
					items = append(items, lockItem{ev: ev})
				}
			}
			return false // inline, or its own unit
		case *ast.DeferStmt:
			items = append(items, lockItem{group: sc.flatten(x.Call)})
			return false
		case *ast.GoStmt:
			sc.started[x.Call] = true
		case *ast.CallExpr:
			ev := lockEvent{kind: lockCall, pos: x.Pos(), spawn: sc.started[x]}
			switch method, key := lockCallKey(sc.pass, x); method {
			case "Lock", "RLock":
				ev = lockEvent{kind: lockAcquire, key: key, method: method, pos: x.Pos()}
			case "Unlock", "RUnlock":
				ev = lockEvent{kind: lockRelease, key: key, pos: x.Pos()}
			}
			items = append(items, lockItem{ev: ev})
		case *ast.SelectorExpr:
			if obj := sc.pass.Info.Uses[x.Sel]; obj != nil {
				if key, ok := sc.guarded[obj]; ok {
					items = append(items, lockItem{ev: lockEvent{kind: lockAccess, key: key, obj: obj, pos: x.Sel.Pos()}})
				}
			}
		}
		return true
	})
	return items
}

// flatten returns the events of node in the order they run when node
// runs to completion: the defers registered inside it last.
func (sc *lockScan) flatten(node ast.Node) []lockEvent {
	var now, atExit []lockEvent
	for _, it := range sc.scanLockItems(nil, node) {
		if it.group != nil {
			atExit = append(atExit, it.group...)
		} else {
			now = append(now, it.ev)
		}
	}
	return append(now, atExit...)
}

// inlineLits returns the function literals of the passes' packages that
// run inside the flow where they appear: called there (deferred calls
// included) or passed as a call argument, but not in a go statement.
func inlineLits(passes map[string]*analysis.Pass) map[*ast.FuncLit]bool {
	inline := make(map[*ast.FuncLit]bool)
	started := make(map[*ast.CallExpr]bool)
	for _, pass := range passes {
		for _, f := range pass.Files {
			ast.Inspect(f, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.GoStmt:
					started[x.Call] = true
				case *ast.CallExpr:
					if started[x] {
						break
					}
					for _, e := range append([]ast.Expr{x.Fun}, x.Args...) {
						if lit, ok := ast.Unparen(e).(*ast.FuncLit); ok {
							inline[lit] = true
						}
					}
				}
				return true
			})
		}
	}
	return inline
}

// lockCallKey classifies call as a Lock/RLock/Unlock/RUnlock on a mutex
// and returns the method and the mutex's key, or "", "" when it is not
// one or the mutex has no key.
func lockCallKey(pass *analysis.Pass, call *ast.CallExpr) (method, key string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	if !isMutexType(pass.TypeOf(sel.X)) {
		return "", ""
	}
	if key = lockKeyOf(pass, sel.X); key == "" {
		return "", ""
	}
	return sel.Sel.Name, key
}

// lockKeyOf names a mutex expression so the same mutex gets the same key
// in both analyzers and from every package: a field keys as
// pkgpath.Type.field (mutexKey, whatever the receiver variable), a
// package-level variable as pkgpath.name, and a local or parameter as
// pkgpath.name:line, after the line that declares it.
func lockKeyOf(pass *analysis.Pass, expr ast.Expr) string {
	var id *ast.Ident
	switch x := expr.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[x]; ok {
			named := analysis.NamedOf(sel.Recv())
			if named == nil || named.Obj().Pkg() == nil {
				return ""
			}
			return mutexKey(named.Obj(), x.Sel.Name)
		}
		id = x.Sel // package-qualified variable: pkg.Mu
	case *ast.Ident:
		id = x
	default:
		return ""
	}
	obj := pass.Info.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	key := obj.Pkg().Path() + "." + obj.Name()
	if obj.Parent() != obj.Pkg().Scope() {
		key += ":" + strconv.Itoa(pass.Fset.Position(obj.Pos()).Line)
	}
	return key
}

// mutexKey is the key of field of struct type tn: pkgpath.Type.field.
func mutexKey(tn *types.TypeName, field string) string {
	return tn.Pkg().Path() + "." + tn.Name() + "." + field
}

// lockField is the field name a guard key ends in, which diagnostics
// print.
func lockField(key string) string {
	return key[strings.LastIndexByte(key, '.')+1:]
}

// isMutexType reports whether t (possibly behind a pointer) is a named
// type called Mutex or RWMutex — sync's, or a fixture-local stand-in.
func isMutexType(t types.Type) bool {
	n := analysis.NamedOf(t)
	if n == nil {
		return false
	}
	name := n.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// inSets solves the forward dataflow from the unit's entry lockset,
// joining predecessors with meet, and returns each block's entry set.
// nil means "not reached" (top, the identity of either meet);
// unreachable blocks keep it.
func (lf *lockFunc) inSets(meet func(a, b lockSet) lockSet) []lockSet {
	nblocks := len(lf.g.Blocks)
	preds := make([][]int, nblocks)
	for _, blk := range lf.g.Blocks {
		for _, s := range blk.Succs {
			preds[s.Index] = append(preds[s.Index], blk.Index)
		}
	}
	in := make([]lockSet, nblocks)
	out := make([]lockSet, nblocks)
	in[lf.g.Entry.Index] = lf.entry
	work := []int{lf.g.Entry.Index}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		o := lf.transfer(i, in[i])
		if lockSetsEqual(o, out[i]) {
			continue
		}
		out[i] = o
		for _, s := range lf.g.Blocks[i].Succs {
			var m lockSet
			for _, p := range preds[s.Index] {
				if out[p] == nil {
					continue
				}
				if m == nil {
					m = maps.Clone(out[p])
				} else {
					m = meet(m, out[p])
				}
			}
			if m != nil && !lockSetsEqual(m, in[s.Index]) {
				in[s.Index] = m
				work = append(work, s.Index)
			}
		}
	}
	return in
}

func (lf *lockFunc) transfer(blk int, in lockSet) lockSet {
	s := maps.Clone(in)
	for _, it := range lf.items[blk] {
		if it.group == nil { // deferred: runs at exit, no effect on the flow here
			s.apply(it.ev)
		}
	}
	return s
}

// replay solves the dataflow with meet, then walks every reachable
// block from its entry set and calls visit with each event and the
// lockset just before it. A deferred group is replayed at its
// registration point, on a copy, so it does not change the flow that
// follows.
func (lf *lockFunc) replay(meet func(a, b lockSet) lockSet, visit func(ev lockEvent, held lockSet)) {
	in := lf.inSets(meet)
	for _, blk := range lf.g.Blocks {
		if in[blk.Index] == nil {
			continue // unreachable
		}
		cur := maps.Clone(in[blk.Index])
		for _, it := range lf.items[blk.Index] {
			evs, set := []lockEvent{it.ev}, cur
			if it.group != nil {
				evs, set = it.group, maps.Clone(cur)
			}
			for _, ev := range evs {
				visit(ev, set)
				set.apply(ev)
			}
		}
	}
}
