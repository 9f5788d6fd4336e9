// Package analysistest runs a skylint analyzer over a fixture directory
// and checks its diagnostics against expectations embedded in the fixture
// source, mirroring golang.org/x/tools/go/analysis/analysistest (which the
// offline build cannot import):
//
//	keys = append(keys, k) // want `regexp matching the diagnostic`
//
// A `// want` comment carries one or more quoted regular expressions
// (back-quoted or double-quoted). Every expectation must be matched by a
// diagnostic reported on its line, and every diagnostic must match an
// expectation — unexpected findings and unmatched wants both fail the
// test. Suppression directives (skylint:ignore) are honored, so fixtures
// also exercise the ignore machinery.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"crowdsky/internal/lint/analysis"
	"crowdsky/internal/lint/loader"
)

// expectation is one want regexp anchored to a (file, line).
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads dir as one fixture package, applies the analyzer and reports
// any mismatch between its diagnostics and the fixture's want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	RunMulti(t, filepath.Dir(dir), []string{filepath.Base(dir)}, a)
}

// RunMulti loads the named subdirectories of root as a multi-package
// fixture (see loader.LoadDirs: the packages may import each other by
// directory name) and applies the analyzer across all of them under one
// shared Program — Run per package, then a single Finish — so
// cross-package facts like call-graph summaries propagate exactly as in
// a real skylint invocation. Want comments are collected from every
// package.
func RunMulti(t *testing.T, root string, dirs []string, a *analysis.Analyzer) {
	t.Helper()
	pkgs, err := loader.LoadDirs(root, dirs)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", root, err)
	}
	prog := analysis.NewProgram()
	var diags []analysis.Diagnostic
	var wants []*expectation
	for _, pkg := range pkgs {
		w, err := collectWants(pkg)
		if err != nil {
			t.Fatal(err)
		}
		wants = append(wants, w...)
		pass := &analysis.Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			PkgPath:  pkg.PkgPath,
			Info:     pkg.Info,
		}
		pass.BuildIgnores()
		pass.SetProgram(prog)
		pass.SetReporter(func(d analysis.Diagnostic) { diags = append(diags, d) })
		if err := a.Run(pass); err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkg.PkgPath, err)
		}
	}
	if a.Finish != nil {
		if err := a.Finish(prog); err != nil {
			t.Fatalf("finishing %s on %s: %v", a.Name, root, err)
		}
	}
	fset := pkgs[0].Fset
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if w := findWant(wants, filepath.Base(pos.Filename), pos.Line, d.Message); w != nil {
			w.matched = true
			continue
		}
		t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %s", w.file, w.line, w.raw)
		}
	}
}

// findWant returns the first unmatched expectation on (file, line) whose
// regexp matches msg, or nil.
func findWant(wants []*expectation, file string, line int, msg string) *expectation {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(msg) {
			return w
		}
	}
	return nil
}

// wantTokenRE matches one quoted pattern: `...` or "..." with escapes.
var wantTokenRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// collectWants extracts every "// want" expectation from the package's
// comments. The marker may open a comment or follow other directives in
// it ("// skylint:guardedby lock // want `...`").
func collectWants(pkg *loader.Package) ([]*expectation, error) {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := c.Text[i+len("// want "):]
				toks := wantTokenRE.FindAllString(rest, -1)
				if len(toks) == 0 {
					return nil, fmt.Errorf("%s:%d: want comment carries no quoted pattern", pos.Filename, pos.Line)
				}
				for _, tok := range toks {
					pat := tok
					if tok[0] == '`' {
						pat = tok[1 : len(tok)-1]
					} else {
						var err error
						pat, err = strconv.Unquote(tok)
						if err != nil {
							return nil, fmt.Errorf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, tok, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %s: %v", pos.Filename, pos.Line, tok, err)
					}
					out = append(out, &expectation{
						file: filepath.Base(pos.Filename),
						line: pos.Line,
						re:   re,
						raw:  tok,
					})
				}
			}
		}
	}
	return out, nil
}
