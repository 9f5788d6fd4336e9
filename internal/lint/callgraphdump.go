package lint

import (
	"fmt"
	"strings"

	"crowdsky/internal/lint/analysis"
	"crowdsky/internal/lint/analysis/callgraph"
	"crowdsky/internal/lint/loader"
)

// DumpCallGraph loads the packages matching patterns under dir and
// renders the CHA call graph that lockset's interprocedural pass runs
// on, in callgraph.Dump's stable text form. It is the
// implementation behind `skylint -callgraph`, a debugging aid for
// answering "which callees does this call site resolve to?" without
// staging a finding.
func DumpCallGraph(dir string, patterns []string, opts loader.Options) (string, error) {
	pkgs, err := loader.Load(dir, patterns, opts)
	if err != nil {
		return "", err
	}
	if len(pkgs) == 0 {
		return "", fmt.Errorf("lint: no packages matched %v", patterns)
	}
	prog := analysis.NewProgram()
	var b *callgraph.Builder
	for _, pkg := range pkgs {
		pass := &analysis.Pass{
			Analyzer: Lockset,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			PkgPath:  pkg.PkgPath,
			Info:     pkg.Info,
		}
		pass.SetProgram(prog)
		b = callgraph.Shared(pass)
	}
	var sb strings.Builder
	b.Graph().Dump(&sb)
	return sb.String(), nil
}
