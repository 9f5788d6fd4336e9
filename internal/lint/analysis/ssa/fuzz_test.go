package ssa

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSSABuild feeds fuzzer-mutated Go source through the SSA builder
// and asserts the verifier invariants on everything that parses. Type
// checking runs with an error-collecting handler and no importer, so
// the builder is exercised against the partial, inconsistent type
// information real broken code produces — it must degrade to opaque
// values, never crash, and never emit a structurally invalid Func.
//
// The seed corpus is the skylint fixture tree, real analyzer inputs with
// the control-flow shapes the analyzers care about, plus testdata/*.go:
// the fixtures of retired analyzers (defer/cancel pairs, WaitGroup
// fan-out, nil guards, hot loops), kept for their shapes alone.
func FuzzSSABuild(f *testing.F) {
	seeds, _ := filepath.Glob("../../testdata/*/*.go")
	more, _ := filepath.Glob("../../testdata/*/*/*.go")
	retired, _ := filepath.Glob("testdata/*.go")
	for _, path := range append(append(seeds, more...), retired...) {
		if data, err := os.ReadFile(path); err == nil {
			f.Add(string(data))
		}
	}
	f.Add("package p\nfunc f(x *int) int { if x != nil { return *x }; return 0 }")
	f.Add("package p\nfunc f(n int) int {\n\ts := 0\n\tfor i := 0; i < n; i++ {\n\t\ts += i\n\t}\n\treturn s\n}")
	f.Add("package p\nfunc f() {\n\ti := 0\nloop:\n\ti++\n\tif i < 3 {\n\t\tgoto loop\n\t}\n}")

	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Skip()
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Error: func(error) {}} // collect, don't stop
		pkg, _ := conf.Check("fuzz", fset, []*ast.File{file}, info)
		_ = pkg
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn := BuildFunc(fd, info)
			if err := fn.Verify(); err != nil {
				t.Fatalf("verifier invariant violated for %s:\n%v\nsource:\n%s", fd.Name.Name, err, src)
			}
			if fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok {
					return true
				}
				lf := BuildLit(lit, info)
				if err := lf.Verify(); err != nil {
					t.Fatalf("verifier invariant violated for literal at %v:\n%v\nsource:\n%s",
						fset.Position(lit.Pos()), err, src)
				}
				return true
			})
		}
	})
}
