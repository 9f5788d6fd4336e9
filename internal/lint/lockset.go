package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"crowdsky/internal/lint/analysis"
	"crowdsky/internal/lint/analysis/callgraph"
	"crowdsky/internal/lint/analysis/cfg"
)

// Lockset is the interprocedural successor of the guardedby analyzer.
// It verifies the "skylint:guardedby <mutex>" field annotation with a
// must-hold lockset dataflow over each function's CFG instead of the old
// lexical "Lock appears earlier in the source" approximation:
//
//   - flow sensitivity: Lock/RLock on the named mutex adds it to the
//     lockset, Unlock/RUnlock removes it, and at a join only locks held
//     on every incoming path survive. Accessing a guarded field after
//     mu.Unlock(), or under a lock taken in just one branch, is now a
//     diagnostic — both were invisible lexically.
//   - `defer mu.Unlock()` releases at function exit, so it does not end
//     the locked region; accesses inside other deferred closures are
//     checked against the lockset at their registration point.
//   - the *Locked suffix is a checked contract, not a blanket
//     exemption: a function named reapExpiredLocked may access guarded
//     fields freely, but its requirement propagates bottom-up through
//     the SCC-condensed call graph, and every call site that does not
//     hold the mutex — transitively, through other *Locked helpers —
//     is reported.
//
// Mutex identity is the final selector component before .Lock()
// (s.mu.Lock() and c.inner.mu.RLock() both name "mu"), matching how the
// annotation names its guard; RLock is accepted for reads and writes
// alike, as before.
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
	guarded := collectGuardAnnotations(pass, func(pos token.Pos, mu string) {
		pass.Reportf(pos, "skylint:guardedby names %q, but the struct has no such field", mu)
	})
	merged := pass.Program().Fact("lockset.guarded", func() any {
		return make(map[types.Object]string)
	}).(map[types.Object]string)
	for obj, mu := range guarded {
		merged[obj] = mu
	}
	return nil
}

func locksetFinish(prog *analysis.Program) error {
	b, ok := prog.Fact("callgraph.builder", func() any { return nil }).(*callgraph.Builder)
	if !ok || b == nil {
		return nil
	}
	guarded := prog.Fact("lockset.guarded", func() any {
		return make(map[types.Object]string)
	}).(map[types.Object]string)
	if len(guarded) == 0 {
		return nil
	}
	passes := prog.Fact("lockset.passes", func() any {
		return make(map[string]*analysis.Pass)
	}).(map[string]*analysis.Pass)
	g := b.Graph()

	funcs := make(map[*callgraph.Node]*lockFunc)
	lockFuncOf := func(n *callgraph.Node) *lockFunc {
		if lf, ok := funcs[n]; ok {
			return lf
		}
		lf := buildLockFunc(n, guarded)
		funcs[n] = lf
		return lf
	}

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
		lf.misses(calleeRequiresFn(func(cn *callgraph.Node) string {
			s, _ := get(cn).(string)
			return s
		}), func(ev lockEvent, mu, callee string) {
			req[mu] = true
		})
		return encodeRequires(req)
	})
	finalRequires := calleeRequiresFn(func(cn *callgraph.Node) string {
		s, _ := summaries[cn].(string)
		return s
	})

	// Phase 2: report misses in every function that does not itself
	// carry the *Locked contract. Literal nodes are skipped: closures
	// are checked lexically inside their enclosing function, with the
	// lockset at the point the literal appears — the same approximation
	// a reviewer applies to `defer func() { ... }()` cleanup bodies.
	for _, n := range g.Nodes {
		pass := passes[n.PkgPath]
		if pass == nil || n.Lit != nil || lockedContract(n) {
			continue
		}
		lf := lockFuncOf(n)
		if lf == nil {
			continue
		}
		fn := n.Name
		if n.Decl != nil {
			fn = funcDesc(n.Decl)
		}
		lf.misses(finalRequires, func(ev lockEvent, mu, callee string) {
			if ev.kind == lockAccess {
				pass.Reportf(ev.pos,
					"%s is guarded by %q (skylint:guardedby) but %s does not lock it before this access; use the accessor/Snapshot path or take the lock",
					ev.obj.Name(), mu, fn)
				return
			}
			pass.Reportf(ev.pos,
				"call to %s requires %q held (skylint:guardedby): it touches guarded fields under the *Locked caller-holds contract, but %s does not lock it before this call",
				callee, mu, fn)
		})
	}
	return nil
}

// lockedContract reports whether n's accesses are the caller's
// responsibility: by the standard Go convention, a name ending in
// "Locked" declares "caller holds the lock".
func lockedContract(n *callgraph.Node) bool {
	return n.Decl != nil && strings.HasSuffix(n.Decl.Name.Name, "Locked")
}

// calleeRequiresFn adapts a summary accessor into the per-call-site
// requirement lookup the miss walk consumes: given the call position it
// yields every (callee, mutex) obligation recorded for edges at that
// site.
func calleeRequiresFn(summaryOf func(*callgraph.Node) string) func(lf *lockFunc, pos token.Pos) []calleeReq {
	return func(lf *lockFunc, pos token.Pos) []calleeReq {
		var out []calleeReq
		for _, cn := range lf.sites[pos] {
			for _, mu := range decodeRequires(summaryOf(cn)) {
				out = append(out, calleeReq{callee: cn.Name, mu: mu})
			}
		}
		return out
	}
}

type calleeReq struct {
	callee string
	mu     string
}

func encodeRequires(req map[string]bool) string {
	if len(req) == 0 {
		return ""
	}
	names := make([]string, 0, len(req))
	for mu := range req {
		names = append(names, mu)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

func decodeRequires(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// ---------------------------------------------------------------------
// Per-function lockset machinery

type lockEventKind uint8

const (
	lockAcquire lockEventKind = iota // mu.Lock() / mu.RLock()
	lockRelease                      // mu.Unlock() / mu.RUnlock()
	lockAccess                       // read or write of a guarded field
	lockCall                         // any other call (requirement discharge point)
)

type lockEvent struct {
	kind lockEventKind
	name string       // mutex name (acquire/release) or guard name (access)
	obj  types.Object // accessed field, for the diagnostic
	pos  token.Pos
}

// lockItem is one entry of a block's event sequence: either a plain
// event or the event group of a DeferStmt subtree, which is simulated
// against a copy of the lockset at its registration point (the deferred
// body runs at exit, but a registered `defer mu.Unlock()` must not end
// the locked region for the statements that follow it).
type lockItem struct {
	ev    lockEvent
	group []lockEvent
}

type lockFunc struct {
	g     *cfg.Graph
	items [][]lockItem
	sites map[token.Pos][]*callgraph.Node
}

func buildLockFunc(n *callgraph.Node, guarded map[types.Object]string) *lockFunc {
	if n.Body == nil || n.Pass == nil {
		return nil
	}
	lf := &lockFunc{
		g:     cfg.New(n.Body),
		sites: make(map[token.Pos][]*callgraph.Node),
	}
	for _, e := range n.Out {
		lf.sites[e.Site] = append(lf.sites[e.Site], e.Callee)
	}
	lf.items = make([][]lockItem, len(lf.g.Blocks))
	for _, blk := range lf.g.Blocks {
		for _, node := range blk.Nodes {
			lf.items[blk.Index] = scanLockItems(lf.items[blk.Index], node, n.Pass.Info, guarded)
		}
	}
	return lf
}

// scanLockItems appends the lock-relevant events of node in source
// order. Function literals are scanned inline: the closure's body is
// treated as running where the literal appears, which keeps the
// `mu.Lock(); defer func() { ...; mu.Unlock() }()` idiom and
// goroutine-body accesses under the same lexical discipline the old
// analyzer applied.
func scanLockItems(items []lockItem, node ast.Node, info *types.Info, guarded map[types.Object]string) []lockItem {
	ast.Inspect(node, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.DeferStmt:
			items = append(items, lockItem{group: scanDeferEvents(x.Call, info, guarded)})
			return false
		case *ast.CallExpr:
			if ev, ok := lockCallEvent(x); ok {
				items = append(items, lockItem{ev: ev})
			} else {
				items = append(items, lockItem{ev: lockEvent{kind: lockCall, pos: x.Pos()}})
			}
		case *ast.SelectorExpr:
			if obj := info.Uses[x.Sel]; obj != nil {
				if mu, ok := guarded[obj]; ok {
					items = append(items, lockItem{ev: lockEvent{kind: lockAccess, name: mu, obj: obj, pos: x.Sel.Pos()}})
				}
			}
		}
		return true
	})
	return items
}

// scanDeferEvents flattens a deferred call's subtree into one event
// group; nested defers inside a deferred closure fold in as well.
func scanDeferEvents(root ast.Node, info *types.Info, guarded map[types.Object]string) []lockEvent {
	var evs []lockEvent
	for _, it := range scanLockItems(nil, root, info, guarded) {
		if it.group != nil {
			evs = append(evs, it.group...)
		} else {
			evs = append(evs, it.ev)
		}
	}
	return evs
}

// lockCallEvent classifies mu.Lock/RLock/Unlock/RUnlock calls. The
// mutex name is the final selector component before the method:
// s.mu.Lock(), c.inner.mu.RLock(), and mu.Lock() all name their last
// path element.
func lockCallEvent(call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	var kind lockEventKind
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = lockAcquire
	case "Unlock", "RUnlock":
		kind = lockRelease
	default:
		return lockEvent{}, false
	}
	switch x := sel.X.(type) {
	case *ast.SelectorExpr:
		return lockEvent{kind: kind, name: x.Sel.Name, pos: call.Pos()}, true
	case *ast.Ident:
		return lockEvent{kind: kind, name: x.Name, pos: call.Pos()}, true
	}
	return lockEvent{}, false
}

// inSets solves the forward must-hold dataflow: a mutex is in a block's
// entry set only if it is held on every path from function entry. nil
// means "not yet reached" (top); unreachable blocks keep it.
func (lf *lockFunc) inSets() []map[string]bool {
	nblocks := len(lf.g.Blocks)
	preds := make([][]int, nblocks)
	for _, blk := range lf.g.Blocks {
		for _, s := range blk.Succs {
			preds[s.Index] = append(preds[s.Index], blk.Index)
		}
	}
	in := make([]map[string]bool, nblocks)
	out := make([]map[string]bool, nblocks)
	in[lf.g.Entry.Index] = map[string]bool{}
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
			var m map[string]bool
			for _, p := range preds[s.Index] {
				if out[p] == nil {
					continue // top: identity for intersection
				}
				if m == nil {
					m = copyLockSet(out[p])
				} else {
					for mu := range m {
						if !out[p][mu] {
							delete(m, mu)
						}
					}
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

func (lf *lockFunc) transfer(blk int, in map[string]bool) map[string]bool {
	s := copyLockSet(in)
	for _, it := range lf.items[blk] {
		if it.group != nil {
			continue // deferred: runs at exit, no effect on the flow here
		}
		switch it.ev.kind {
		case lockAcquire:
			s[it.ev.name] = true
		case lockRelease:
			delete(s, it.ev.name)
		}
	}
	return s
}

// misses replays each reachable block with its solved entry set and
// calls miss for every guarded access without its mutex held and every
// call site that fails to discharge a callee's *Locked requirement.
func (lf *lockFunc) misses(requiresAt func(*lockFunc, token.Pos) []calleeReq, miss func(ev lockEvent, mu, callee string)) {
	in := lf.inSets()
	for _, blk := range lf.g.Blocks {
		if in[blk.Index] == nil {
			continue // unreachable
		}
		cur := copyLockSet(in[blk.Index])
		for _, it := range lf.items[blk.Index] {
			if it.group != nil {
				local := copyLockSet(cur)
				for _, ev := range it.group {
					lf.step(local, ev, requiresAt, miss)
				}
				continue
			}
			lf.step(cur, it.ev, requiresAt, miss)
		}
	}
}

func (lf *lockFunc) step(set map[string]bool, ev lockEvent, requiresAt func(*lockFunc, token.Pos) []calleeReq, miss func(ev lockEvent, mu, callee string)) {
	switch ev.kind {
	case lockAcquire:
		set[ev.name] = true
	case lockRelease:
		delete(set, ev.name)
	case lockAccess:
		if !set[ev.name] {
			miss(ev, ev.name, "")
		}
	case lockCall:
		for _, r := range requiresAt(lf, ev.pos) {
			if !set[r.mu] {
				miss(ev, r.mu, r.callee)
			}
		}
	}
}

func copyLockSet(s map[string]bool) map[string]bool {
	c := make(map[string]bool, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func lockSetsEqual(a, b map[string]bool) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
