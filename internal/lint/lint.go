// Package lint is skylint: a suite of repository-specific static checks
// enforcing CrowdSky's correctness contracts, which ordinary vetting
// cannot know about.
//
// The paper's guarantees are fragile cross-cutting invariants: the
// |DS|-ascending evaluation order of Lemma 3 must be deterministic (so a
// map iteration feeding an ordered slice is a latent bug), the crowd
// accounting in crowd.Stats must only be touched under its mutex, trace
// emission must stay nil-safe on the hot path, and dominance code must
// never compare attribute floats with == (the epsilon comparator exists
// for that). Each analyzer machine-checks one such contract; cmd/skylint
// runs them all, next to go vet, over the whole tree in CI.
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

// All returns every skylint analyzer, in stable order: the first
// generation of lexical checks, then the CFG generation
// (lockorder through goroleak), the cross-package schema check, the
// interprocedural hot-path generation built on the call graph
// (hotalloc through purity), and the SSA value-flow generation
// (nilness through crowdtaint), which subsumed the original niltrace
// and guardedby analyzers.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DetRange,
		FloatEq,
		ErrDrop,
		LockOrder,
		CtxLeak,
		WgBalance,
		GoroLeak,
		TraceSchema,
		HotAlloc,
		RecvCopy,
		Purity,
		Nilness,
		Lockset,
		CrowdTaint,
	}
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
