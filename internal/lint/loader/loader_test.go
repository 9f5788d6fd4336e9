package loader

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module on disk: files maps
// module-relative paths to contents. Returns the module root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadBuildTags checks that package enumeration respects build
// constraints: a file excluded by its //go:build line must not reach the
// parser, so analyzers never see code the compiler would not.
func TestLoadBuildTags(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module tagmod\n\ngo 1.21\n",
		"a.go":   "package tagmod\n\nfunc Kept() int { return 1 }\n",
		"b.go":   "//go:build never_enabled\n\npackage tagmod\n\nfunc Dropped() int { return undefinedOnPurpose }\n",
	})
	pkgs, err := Load(dir, []string{"."}, Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (build-constrained file must be excluded)", len(pkg.Files))
	}
	if pkg.Pkg.Scope().Lookup("Kept") == nil {
		t.Error("Kept not in package scope")
	}
	if pkg.Pkg.Scope().Lookup("Dropped") != nil {
		t.Error("Dropped leaked into the package scope despite its build tag")
	}
}

// TestLoadAllowErrors covers the partial-result path: a package that
// fails to type-check is fatal by default, but with AllowErrors the
// loader keeps the syntax trees and whatever the checker recovered, and
// surfaces the complaints in Package.TypeErrors.
func TestLoadAllowErrors(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module brokenmod\n\ngo 1.21\n",
		"a.go":   "package brokenmod\n\nfunc Fine() int { return 1 }\n\nfunc Broken() int { return notDefined }\n",
	})
	if _, err := Load(dir, []string{"."}, Options{}); err == nil {
		t.Fatal("strict Load of a package with type errors succeeded, want error")
	} else if !strings.Contains(err.Error(), "notDefined") {
		t.Fatalf("strict Load error does not mention the bad identifier: %v", err)
	}

	pkgs, err := Load(dir, []string{"."}, Options{AllowErrors: true})
	if err != nil {
		t.Fatalf("Load with AllowErrors: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if len(pkg.TypeErrors) == 0 {
		t.Fatal("partial package has no TypeErrors recorded")
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("partial package has %d files, want 1", len(pkg.Files))
	}
	// The checker recovers everything not touched by the error.
	if pkg.Pkg == nil || pkg.Pkg.Scope().Lookup("Fine") == nil {
		t.Error("recovered scope is missing the healthy declaration Fine")
	}
}

// TestLoadVendoredImport checks resolution through a vendor directory:
// with vendor/ present the go toolchain resolves the dependency there
// automatically, and the loader must resolve the vendored package so the
// importing package sees real object information.
func TestLoadVendoredImport(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module vendmod\n\ngo 1.21\n\nrequire example.com/dep v0.0.0-00010101000000-000000000000\n",
		"a.go": "package vendmod\n\nimport \"example.com/dep\"\n\n" +
			"func Use() int { return dep.Answer() }\n",
		"vendor/modules.txt": "# example.com/dep v0.0.0-00010101000000-000000000000\n" +
			"## explicit; go 1.21\nexample.com/dep\n",
		"vendor/example.com/dep/dep.go": "package dep\n\nfunc Answer() int { return 42 }\n",
	})
	pkgs, err := Load(dir, []string{"."}, Options{})
	if err != nil {
		t.Fatalf("Load with vendored dependency: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	use := pkg.Pkg.Scope().Lookup("Use")
	if use == nil {
		t.Fatal("Use not in package scope")
	}
	depPkg := pkg.Pkg.Imports()
	found := false
	for _, p := range depPkg {
		if p.Path() == "example.com/dep" {
			found = true
			if p.Scope().Lookup("Answer") == nil {
				t.Error("vendored dep type-checked without its exported Answer")
			}
		}
	}
	if !found {
		t.Errorf("example.com/dep not among imports %v", depPkg)
	}
}

// assertOneUniverse fails unless every import of a loaded package whose
// path starts with prefix is the very *types.Package Load returned for
// that path: one package, one set of objects, across the whole load.
func assertOneUniverse(t *testing.T, pkgs []*Package, prefix string) {
	t.Helper()
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
	}
	edges := 0
	for _, p := range pkgs {
		for _, imp := range p.Pkg.Imports() {
			if !strings.HasPrefix(imp.Path(), prefix) {
				continue
			}
			edges++
			if got := byPath[imp.Path()]; got == nil || got.Pkg != imp {
				t.Errorf("%s imports a second *types.Package for %s", p.PkgPath, imp.Path())
			}
		}
	}
	if edges == 0 {
		t.Errorf("no imports under %q to check", prefix)
	}
}

// TestLoadImportIdentity checks that an in-module import resolves to the
// package Load type-checked from source, not to a second copy of it.
func TestLoadImportIdentity(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module idmod\n\ngo 1.21\n",
		"x/x.go": "package x\n\nimport \"idmod/y\"\n\nfunc X() y.T { return y.T{} }\n",
		"y/y.go": "package y\n\ntype T struct{ N int }\n",
	})
	pkgs, err := Load(dir, []string{"./..."}, Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	assertOneUniverse(t, pkgs, "idmod/")
}

// TestRepoWideLoad loads the whole repository and checks the one package
// universe over it: every in-repo import is the *types.Package loaded for
// that path.
func TestRepoWideLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole repository")
	}
	pkgs, err := Load("../../..", []string{"./..."}, Options{})
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	assertOneUniverse(t, pkgs, "crowdsky/")
}

// TestLoadTests covers Options.Tests: an in-package test file importing
// "testing" (not a dependency of any non-test file) and an in-module
// package that only the test imports must load, the latter resolving to
// the loader's own package even though it sorts after its importer.
func TestLoadTests(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module testmod\n\ngo 1.21\n",
		"a/a.go": "package a\n\nfunc A() int { return 1 }\n",
		"a/a_test.go": "package a\n\nimport (\n\t\"testing\"\n\n\t\"testmod/b\"\n)\n\n" +
			"func TestA(t *testing.T) {\n\tif A() != b.B() {\n\t\tt.Fatal(\"mismatch\")\n\t}\n}\n",
		"b/b.go": "package b\n\nfunc B() int { return 1 }\n",
	})
	pkgs, err := Load(dir, []string{"./..."}, Options{Tests: true})
	if err != nil {
		t.Fatalf("Load with Tests: %v", err)
	}
	if len(pkgs) != 2 || pkgs[1].PkgPath != "testmod/a" {
		t.Fatalf("loaded %d packages, want testmod/b then its test importer testmod/a", len(pkgs))
	}
	a := pkgs[1]
	if len(a.Files) != 2 {
		t.Fatalf("testmod/a has %d files, want 2 (a.go and a_test.go)", len(a.Files))
	}
	if a.Pkg.Scope().Lookup("TestA") == nil {
		t.Error("TestA not in package scope")
	}
	assertOneUniverse(t, pkgs, "testmod/")
}

// TestLoadTestsNarrowPattern covers Options.Tests when the pattern names
// only the importing package: b is imported only by a's test file and
// itself imports c, which a.go imports too. b must be checked from
// source against the same c, or a_test.go's b.B(A()) is a type error.
func TestLoadTestsNarrowPattern(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module narrowmod\n\ngo 1.21\n",
		"a/a.go": "package a\n\nimport \"narrowmod/c\"\n\nfunc A() c.T { return c.T{N: 1} }\n",
		"a/a_test.go": "package a\n\nimport (\n\t\"testing\"\n\n\t\"narrowmod/b\"\n)\n\n" +
			"func TestA(t *testing.T) {\n\tif b.B(A()) != 1 {\n\t\tt.Fatal(\"mismatch\")\n\t}\n}\n",
		"b/b.go": "package b\n\nimport \"narrowmod/c\"\n\nfunc B(t c.T) int { return t.N }\n",
		"c/c.go": "package c\n\ntype T struct{ N int }\n",
	})
	pkgs, err := Load(dir, []string{"./a"}, Options{Tests: true})
	if err != nil {
		t.Fatalf("Load with Tests: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].PkgPath != "narrowmod/a" {
		t.Fatalf("loaded %d packages, want only narrowmod/a", len(pkgs))
	}
	imports := make(map[string]*types.Package)
	for _, imp := range pkgs[0].Pkg.Imports() {
		imports[imp.Path()] = imp
	}
	b, c := imports["narrowmod/b"], imports["narrowmod/c"]
	if b == nil || c == nil {
		t.Fatalf("imports of narrowmod/a = %v, want narrowmod/b and narrowmod/c", pkgs[0].Pkg.Imports())
	}
	for _, imp := range b.Imports() {
		if imp.Path() == "narrowmod/c" && imp != c {
			t.Error("narrowmod/b imports a second *types.Package for narrowmod/c")
		}
	}
}
