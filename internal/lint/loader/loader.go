// Package loader loads and type-checks Go packages for the skylint
// analyzers without golang.org/x/tools. It sees one package universe
// through one importer:
//
//   - Load runs a single `go list -e -deps -export` over the patterns
//     (with `-test` under Options.Tests, so test imports are listed too).
//     Main-module packages (and anything the patterns name) are parsed
//     and type-checked from source, dependencies first, and served to
//     each other from the loader's own map. Nothing outside the main
//     module imports them, so every path has exactly one *types.Package
//     per load, which the cross-package facts and the call graph rely on.
//   - Every other package (standard library, vendored, module cache)
//     comes from the gc export data `go list -export` names. After
//     `go build ./...` those files are already in the build cache, so
//     loading is offline and never type-checks the standard library.
//
// Fixture loads (LoadDirs) have no listing of their own: their non-local
// imports are listed the first time a fixture needs them, and the answers
// are shared by every fixture load in the process.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath string
	Name    string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
	// TypeErrors holds the type-checker's complaints when the package
	// was loaded with Options.AllowErrors; empty for a clean package.
	TypeErrors []string
}

// Options selects what Load feeds the type checker.
type Options struct {
	// Tests includes each matched package's in-package _test.go files
	// (TestGoFiles), so the flow-sensitive concurrency analyzers can audit
	// test goroutines and context use too. External test packages
	// (XTestGoFiles, package foo_test) are not loaded: they form a second
	// package over the same directory, which the shared-FileSet pipeline
	// does not model.
	Tests bool

	// AllowErrors returns a partial Package for sources that fail to
	// type-check instead of failing the whole load: the syntax trees,
	// the shared FileSet and whatever type information the checker
	// recovered are kept, and the errors land in Package.TypeErrors.
	// The analyzer driver stays strict (a broken tree should fail CI
	// loudly, not silently under-report); tooling that inspects
	// work-in-progress code opts in.
	AllowErrors bool
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath  string
	Name        string
	Dir         string
	Export      string
	GoFiles     []string
	CgoFiles    []string
	TestGoFiles []string
	DepOnly     bool
	ForTest     string
	Module      *struct{ Main bool }
	Error       *struct{ Err string }
}

// unit is one package the loader type-checks from source.
type unit struct {
	path, dir string
	files     []string
	// root packages are returned to the caller; the others are
	// main-module dependencies, checked only so importers can see them.
	root bool
}

// Load enumerates the packages matching patterns (e.g. "./...") relative
// to dir, parses their sources and type-checks them. All packages share
// one FileSet and one importer. With Options.Tests the one listing also
// covers test imports, so a main-module package that only a test imports
// is checked from source like any other.
func Load(dir string, patterns []string, opts Options) ([]*Package, error) {
	args := []string{"-deps"}
	if opts.Tests {
		args = append(args, "-test")
	}
	entries, err := goList(dir, append(args, patterns...))
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	var units []unit
	for _, e := range entries {
		// -test adds the packages as compiled for their tests ("p
		// [p.test]", external tests, recompiled dependencies) and the
		// generated test mains; the in-package test files are loaded
		// with p itself below.
		if e.ForTest != "" || (opts.Tests && e.Name == "main" && strings.HasSuffix(e.ImportPath, ".test")) {
			continue
		}
		root := !e.DepOnly
		if !root && (e.Module == nil || !e.Module.Main) {
			exports[e.ImportPath] = e.Export
			continue
		}
		if len(e.CgoFiles) > 0 {
			return nil, fmt.Errorf("loader: package %s uses cgo, which skylint does not support", e.ImportPath)
		}
		// A main-module package that fails to compile still lists its
		// files; the type checker reports the failure below. No files at
		// all means the package itself could not be resolved.
		if e.Error != nil && len(e.GoFiles) == 0 {
			return nil, fmt.Errorf("loader: %s: %s", e.ImportPath, strings.TrimSpace(e.Error.Err))
		}
		names := e.GoFiles
		if opts.Tests && root {
			names = append(append([]string(nil), e.GoFiles...), e.TestGoFiles...)
		}
		files := make([]string, len(names))
		for i, f := range names {
			files[i] = filepath.Join(e.Dir, f)
		}
		units = append(units, unit{path: e.ImportPath, dir: e.Dir, files: files, root: root})
	}
	return check(units, func([]string) (map[string]string, error) { return exports, nil }, opts.AllowErrors)
}

// LoadDirs loads the named subdirectories of root as one multi-package
// fixture: every .go file directly inside each subdirectory forms a
// package whose import path is the subdirectory name, and the packages
// may import each other by that name ("kernel" imports nothing, "hot"
// imports "kernel"). All packages share one FileSet, so cross-package
// positions stay comparable — the property the interprocedural
// analyzers' tests rely on. A single-package fixture is LoadDirs over
// one directory. Other imports come from gc export data, listed from
// root the first time any fixture load needs them.
func LoadDirs(root string, dirs []string) ([]*Package, error) {
	units := make([]unit, len(dirs))
	for i, d := range dirs {
		files, err := filepath.Glob(filepath.Join(root, d, "*.go"))
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("loader: no .go files in %s", filepath.Join(root, d))
		}
		units[i] = unit{path: d, dir: filepath.Join(root, d), files: files, root: true}
	}
	return check(units, func(imports []string) (map[string]string, error) {
		return fixtureExports.lookup(root, imports)
	}, false)
}

// check parses and type-checks units, each after the units it imports
// (test imports included), and returns the root packages in that order.
// Imports that are not units resolve through gc export data, from the
// files exports maps them to.
func check(units []unit, exports func(imports []string) (map[string]string, error), allowErrors bool) ([]*Package, error) {
	fset := token.NewFileSet()
	byPath := make(map[string]int, len(units))
	for i, u := range units {
		byPath[u.path] = i
	}
	parsed := make([][]*ast.File, len(units))
	deps := make(map[string][]string, len(units))
	var external []string
	for i, u := range units {
		for _, name := range u.files {
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("loader: %v", err)
			}
			parsed[i] = append(parsed[i], f)
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if _, local := byPath[path]; local {
					deps[u.path] = append(deps[u.path], path)
				} else {
					external = append(external, path)
				}
			}
		}
	}
	files, err := exports(external)
	if err != nil {
		return nil, err
	}
	paths := make([]string, len(units))
	for i, u := range units {
		paths[i] = u.path
	}
	order, err := topoSort(paths, deps)
	if err != nil {
		return nil, err
	}

	imp := &universe{
		local: make(map[string]*types.Package, len(units)),
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if files[path] == "" {
				return nil, fmt.Errorf("no export data for %s", path)
			}
			return os.Open(files[path])
		}),
	}
	var out []*Package
	for _, path := range order {
		i := byPath[path]
		pkg, err := typecheck(fset, imp, units[i].path, units[i].dir, parsed[i], allowErrors)
		if err != nil {
			return nil, err
		}
		imp.local[path] = pkg.Pkg
		if units[i].root {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// universe is the loader's one importer: packages type-checked from
// source in this load come from its own map, everything else from gc
// export data.
type universe struct {
	local map[string]*types.Package
	gc    types.Importer
}

func (u *universe) Import(path string) (*types.Package, error) {
	if pkg, ok := u.local[path]; ok {
		return pkg, nil
	}
	return u.gc.Import(path)
}

// exportIndex maps the imports of fixture loads (the standard library,
// in practice) to gc export data files, keyed by the directory the
// lookup ran in and the import path; "" records that go list found none.
type exportIndex struct {
	mu    sync.Mutex
	files map[[2]string]string
}

// fixtureExports is shared by every LoadDirs call in the process, so
// each fixture import is listed once per directory.
var fixtureExports = &exportIndex{files: make(map[[2]string]string)}

// lookup returns the export data file of each path, listing the paths
// not yet indexed for dir in one go list run from dir.
func (x *exportIndex) lookup(dir string, paths []string) (map[string]string, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	var todo []string
	for _, p := range paths {
		if _, ok := x.files[[2]string{dir, p}]; !ok && p != "unsafe" && !slices.Contains(todo, p) {
			todo = append(todo, p)
		}
	}
	if len(todo) > 0 {
		entries, err := goList(dir, todo)
		if err != nil {
			return nil, err
		}
		for _, p := range todo {
			x.files[[2]string{dir, p}] = ""
		}
		for _, e := range entries {
			x.files[[2]string{dir, e.ImportPath}] = e.Export
		}
	}
	out := make(map[string]string, len(paths))
	for _, p := range paths {
		out[p] = x.files[[2]string{dir, p}]
	}
	return out, nil
}

// topoSort orders paths so every package follows its local dependencies;
// ties keep the caller's order. Cycles are an error: packages must form a
// DAG, and Go rejects an in-package test that imports its own importer.
func topoSort(paths []string, deps map[string][]string) ([]string, error) {
	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[string]int, len(paths))
	var order []string
	var visit func(string) error
	visit = func(p string) error {
		switch state[p] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("loader: import cycle through %q", p)
		}
		state[p] = visiting
		for _, dep := range deps[p] {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[p] = done
		order = append(order, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// goList runs `go list -e -export` with args in dir. Per-package problems
// come back in listEntry.Error; only a failure of go list itself is an
// error here.
func goList(dir string, args []string) ([]listEntry, error) {
	args = append([]string{"list", "-e", "-export",
		"-json=ImportPath,Name,Dir,Export,GoFiles,CgoFiles,TestGoFiles,DepOnly,ForTest,Module,Error"}, args...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("loader: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var entries []listEntry
	for dec.More() {
		var e listEntry
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("loader: decoding go list output: %v", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

func typecheck(fset *token.FileSet, imp types.Importer, pkgPath, dir string, files []*ast.File, allowErrors bool) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []string
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if len(typeErrs) > 0 || err != nil {
		if !allowErrors || tpkg == nil {
			if len(typeErrs) > 0 {
				return nil, fmt.Errorf("loader: type errors in %s:\n  %s", pkgPath, strings.Join(typeErrs, "\n  "))
			}
			return nil, fmt.Errorf("loader: type-checking %s: %v", pkgPath, err)
		}
		if len(typeErrs) == 0 {
			typeErrs = append(typeErrs, err.Error())
		}
	}
	return &Package{PkgPath: pkgPath, Name: tpkg.Name(), Dir: dir, Fset: fset, Files: files, Pkg: tpkg, Info: info, TypeErrors: typeErrs}, nil
}
