package ssa

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"

	"crowdsky/internal/lint/loader"
)

// TestRepoWideBuild builds SSA for every function and function literal
// in the repository and asserts the verifier invariants on each — the
// acceptance gate for the construction: defs dominate uses, phi arity
// matches predecessor counts, no values in unreachable blocks. It also
// asserts the loader's one package universe over the repository: every
// in-repo import is the *types.Package loaded for that path.
func TestRepoWideBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole repository")
	}
	pkgs, err := loader.Load("../../../..", []string{"./..."}, loader.Options{})
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	byPath := make(map[string]*types.Package, len(pkgs))
	for _, pkg := range pkgs {
		byPath[pkg.PkgPath] = pkg.Pkg
	}
	edges := 0
	for _, pkg := range pkgs {
		for _, imp := range pkg.Pkg.Imports() {
			if strings.HasPrefix(imp.Path(), "crowdsky/") {
				edges++
				if byPath[imp.Path()] != imp {
					t.Errorf("%s imports a second *types.Package for %s", pkg.PkgPath, imp.Path())
				}
			}
		}
	}
	if edges == 0 {
		t.Error("no in-repo import edges to check")
	}
	funcs, lits := 0, 0
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				f := BuildFunc(fd, pkg.Info)
				if err := f.Verify(); err != nil {
					t.Errorf("%s: %s: %v", pkg.PkgPath, fd.Name.Name, err)
				}
				funcs++
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					lit, ok := n.(*ast.FuncLit)
					if !ok {
						return true
					}
					lf := BuildLit(lit, pkg.Info)
					if err := lf.Verify(); err != nil {
						t.Errorf("%s: literal at %s: %v",
							pkg.PkgPath, pkg.Fset.Position(lit.Pos()), err)
					}
					lits++
					return true
				})
			}
		}
	}
	if funcs == 0 {
		t.Fatal("no functions built; loader returned nothing useful")
	}
	t.Logf("verified %d functions and %d literals across %d packages, %d in-repo import edges",
		funcs, lits, len(pkgs), edges)
}
