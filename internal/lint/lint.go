// Package lint is skylint: a suite of repository-specific static checks
// enforcing CrowdSky's correctness contracts, which ordinary vetting
// cannot know about.
//
// The paper's guarantees are fragile cross-cutting invariants: the
// |DS|-ascending evaluation order of Lemma 3 must be deterministic (so a
// map iteration feeding an ordered slice is a latent bug), and the crowd
// accounting in crowd.Stats must only be touched under its mutex. The five
// analyzers are the lexical checks (detrange, errdrop), the CFG check
// (goroleak) and the call-graph lock checks (lockorder, lockset) on one
// lock model (lockset.go). Each
// machine-checks one such contract that no test, go vet or -race run
// catches; cmd/skylint runs them all, next to go vet, over the whole tree
// in CI.
//
// Suppression: a finding is silenced by a comment on the same line or the
// line directly above:
//
//	// skylint:ignore <analyzer>[,<analyzer>...] <reason>
//
// See docs/STATIC_ANALYSIS.md for the full annotation grammar.
package lint

import (
	"strings"

	"crowdsky/internal/lint/analysis"
)

// All returns every skylint analyzer in a fixed order, which SARIF rule
// indexes follow. They group as the lexical checks (detrange, errdrop),
// the CFG check (goroleak) and the lock checks on the call graph
// (lockorder, lockset).
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DetRange,
		ErrDrop,
		LockOrder,
		GoroLeak,
		Lockset,
	}
}

// finishPasses returns the analyzer-specific pkg-path → Pass map stored
// under key. Finish-phase reporting must go through a Pass whose
// Analyzer is the reporting analyzer and whose package owns the
// position, so each interprocedural analyzer keeps its own map.
func finishPasses(pass *analysis.Pass, key string) map[string]*analysis.Pass {
	m := pass.Program().Fact(key, func() any {
		return make(map[string]*analysis.Pass)
	}).(map[string]*analysis.Pass)
	m[pass.PkgPath] = pass
	return m
}

// inScope reports whether the package belongs to one of the named
// components. It matches the final import-path segment and the package
// name, so both real packages ("crowdsky/internal/core") and analysistest
// fixture packages (loaded under their directory name) resolve the same
// way.
func inScope(pkgPath, pkgName string, components ...string) bool {
	last := pkgPath
	if i := strings.LastIndex(pkgPath, "/"); i >= 0 {
		last = pkgPath[i+1:]
	}
	for _, c := range components {
		if last == c || pkgName == c {
			return true
		}
	}
	return false
}
