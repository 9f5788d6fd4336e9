package lint

import (
	"go/token"
	"sort"
	"strings"

	"crowdsky/internal/lint/analysis"
	"crowdsky/internal/lint/analysis/callgraph"
)

// LockOrder builds a cross-package lock-acquisition graph and reports
// cycles. Deadlock by inconsistent lock order is the one concurrency bug
// -race cannot see (it needs the unlucky interleaving to fire, and then
// it is a hang, not a report), and it is invisible to any single-package
// check by construction: function A in crowd locks mu1 then mu2, function
// B in crowdserve locks mu2 then mu1, and each file looks locally fine.
//
// It runs on the lock model it shares with lockset (see lockFunc): the
// same mutex keys, lock-call classifier, *Locked entry rule and CFG
// transfer function. Acquiring a mutex records a directed edge from
// every mutex held on some path to that point (the may-hold set) into a
// program-wide graph, so a lock taken on one branch still orders what is
// acquired after the join. A call records the same edges into every
// mutex the callee acquires, itself or through its own callees (a
// bottom-up "acquires" summary over the call graph); a call started with
// go records none, since the new goroutine holds nothing. After every
// package has run, each cycle is reported once, at its lexicographically
// first edge. Methods
// whose name ends in "Locked" are entered holding their receiver's mutex
// fields, so any mutex they acquire is ordered after them. Re-acquiring
// a mutex that some path holds, when either acquisition is a write lock,
// is reported at the site as a self-deadlock.
var LockOrder = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "lock acquisition order must be globally consistent: " +
		"cycles in the cross-package held-while-acquiring graph deadlock",
	Run: func(pass *analysis.Pass) error {
		callgraph.Shared(pass)
		finishPasses(pass, "lockorder.passes")
		return nil
	},
	Finish: finishLockOrder,
}

// lockOrderFacts is the program-wide acquisition graph.
type lockOrderFacts struct {
	// edges[from][to] is the first observed site acquiring `to` while
	// holding `from`.
	edges map[string]map[string]*lockEdgeSite
}

type lockEdgeSite struct {
	pass *analysis.Pass
	pos  token.Pos
	fn   string
}

// lockOrderEdges replays every unit of the call graph through the lock
// model, reporting self-deadlocks as it goes, and returns the
// acquisition graph.
func lockOrderEdges(prog *analysis.Program) *lockOrderFacts {
	facts := &lockOrderFacts{edges: make(map[string]map[string]*lockEdgeSite)}
	g, passes := lockGraph(prog, "lockorder.passes")
	if g == nil {
		return facts
	}
	inline := inlineLits(passes)
	lockFuncOf := lockFuncs(nil, inline)
	// acquires returns the mutex keys ev takes: its own, or those of the
	// units a call enters on this goroutine, read from summary. A call
	// started with go enters nothing here.
	acquires := func(lf *lockFunc, ev lockEvent, summary func(*callgraph.Node) any) []string {
		var keys []string
		switch {
		case ev.kind == lockAcquire:
			keys = append(keys, ev.key)
		case ev.kind == lockCall && !ev.spawn:
			for _, cn := range lf.sites[ev.pos] {
				s, _ := summary(cn).(string)
				keys = append(keys, decodeRequires(s)...)
			}
		}
		return keys
	}

	// The acquires summary of a unit: every mutex key it locks anywhere
	// in its body, or through a callee. Summaries only grow, so a cyclic
	// component reaches its fixpoint.
	acquired := g.BottomUp(func(n *callgraph.Node, get func(*callgraph.Node) any) any {
		lf := lockFuncOf(n)
		if lf == nil {
			return ""
		}
		keys := make(map[string]bool)
		for _, items := range lf.items {
			for _, it := range items {
				evs := []lockEvent{it.ev}
				if it.group != nil {
					evs = it.group
				}
				for _, ev := range evs {
					for _, key := range acquires(lf, ev, get) {
						keys[key] = true
					}
				}
			}
		}
		return encodeRequires(keys)
	})
	summary := func(cn *callgraph.Node) any { return acquired[cn] }

	for _, n := range g.Nodes {
		pass := passes[n.PkgPath]
		if pass == nil || inline[n.Lit] {
			continue
		}
		lf := lockFuncOf(n)
		if lf == nil {
			continue
		}
		fn := nodeDesc(n)
		lf.replay(mayMeet, func(ev lockEvent, may lockSet) {
			if h, ok := may[ev.key]; ok && ev.kind == lockAcquire && (ev.method == "Lock" || h&heldWrite != 0) {
				pass.Reportf(ev.pos,
					"%s is already held here: this %s deadlocks the goroutine against itself",
					shortLockKey(ev.key), ev.method)
			}
			for _, key := range acquires(lf, ev, summary) {
				for held := range may {
					// A callee re-taking a held mutex is out of scope:
					// keys are per type, so it is usually another one.
					if held == key {
						continue
					}
					if facts.edges[held] == nil {
						facts.edges[held] = make(map[string]*lockEdgeSite)
					}
					if facts.edges[held][key] == nil {
						facts.edges[held][key] = &lockEdgeSite{pass: pass, pos: ev.pos, fn: fn}
					}
				}
			}
		})
	}
	return facts
}

// finishLockOrder runs after every package: it walks the accumulated
// acquisition graph and reports each cycle once, at the site of its
// lexicographically first edge, through that edge's own pass so
// skylint:ignore on the acquiring line still suppresses it.
func finishLockOrder(prog *analysis.Program) error {
	facts := lockOrderEdges(prog)
	froms := make([]string, 0, len(facts.edges))
	for from := range facts.edges {
		froms = append(froms, from)
	}
	sort.Strings(froms)

	reported := make(map[string]bool) // canonical node-set of the cycle
	for _, from := range froms {
		tos := make([]string, 0, len(facts.edges[from]))
		for to := range facts.edges[from] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			path := lockPath(facts, to, from)
			if path == nil {
				continue
			}
			// path is to→…→from inclusive; drop the final `from` so the
			// cycle holds each node once (describeCycle closes the loop).
			cycle := append([]string{from}, path[:len(path)-1]...)
			canon := canonicalCycle(cycle)
			if reported[canon] {
				continue
			}
			reported[canon] = true
			site := facts.edges[from][to]
			site.pass.Reportf(site.pos,
				"lock order cycle: %s (this edge acquired in %s); pick one global order for these mutexes",
				describeCycle(cycle), site.fn)
		}
	}
	return nil
}

// lockPath returns the shortest edge path from `from` to `to` (BFS with
// sorted neighbor expansion, so the result is deterministic), or nil.
func lockPath(facts *lockOrderFacts, from, to string) []string {
	prev := map[string]string{from: ""}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == to {
			var path []string
			for n := to; n != ""; n = prev[n] {
				path = append([]string{n}, path...)
			}
			return path
		}
		next := make([]string, 0, len(facts.edges[cur]))
		for n := range facts.edges[cur] {
			next = append(next, n)
		}
		sort.Strings(next)
		for _, n := range next {
			if _, seen := prev[n]; !seen {
				prev[n] = cur
				queue = append(queue, n)
			}
		}
	}
	return nil
}

// canonicalCycle produces a rotation-independent identity for a cycle's
// node sequence, so a→b→a and b→a→b dedupe to one report.
func canonicalCycle(nodes []string) string {
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	return strings.Join(sorted, "→")
}

// describeCycle renders a→b→…→a with the package paths trimmed to keep
// the message readable; the full keys disambiguate only when two types
// share a name.
func describeCycle(nodes []string) string {
	parts := make([]string, 0, len(nodes)+1)
	for _, n := range nodes {
		parts = append(parts, shortLockKey(n))
	}
	parts = append(parts, shortLockKey(nodes[0]))
	return strings.Join(parts, " -> ")
}

// shortLockKey trims the directory part of the package path:
// crowdsky/internal/crowd.Stats.mu becomes crowd.Stats.mu.
func shortLockKey(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}
