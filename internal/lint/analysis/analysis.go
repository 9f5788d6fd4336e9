// Package analysis is a dependency-free miniature of the
// golang.org/x/tools/go/analysis framework: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics.
//
// The repository must build offline with the standard library only (see
// DESIGN.md), so instead of importing x/tools this package re-implements
// the small slice of its API that the skylint analyzers need. Analyzers
// written against it keep the familiar shape — a Name, a Doc string and a
// Run function over a Pass — which keeps a future migration to the real
// framework mechanical.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// "skylint:ignore <name>" suppression comments. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description, shown by skylint -help.
	Doc string
	// Run inspects the package behind pass and reports findings through
	// pass.Reportf. A returned error aborts the whole skylint run (reserve
	// it for internal failures, not findings).
	Run func(pass *Pass) error
	// Finish, when non-nil, runs once after Run has seen every package of
	// the skylint invocation. Program-wide analyzers (lockorder,
	// lockset) accumulate facts in pass.Program().Fact during Run and
	// report from here, through the Pass each fact was recorded under, so
	// suppression comments keep working.
	Finish func(prog *Program) error
}

// Program is the cross-package state of one skylint run: every Pass of the
// run shares one Program, giving analyzers a place to accumulate facts
// (lock-order edges, event schemas) whose checks only make sense once the
// whole package set has been seen.
//
// Analyzers run package-by-package within a single goroutine, so Program
// needs no locking.
type Program struct {
	facts map[string]any
}

// NewProgram returns an empty fact store.
func NewProgram() *Program { return &Program{facts: make(map[string]any)} }

// Fact returns the fact value stored under key, creating it with init on
// first use. Keys are conventionally the analyzer name; an analyzer that
// stores several fact kinds suffixes the key ("lockset.guarded").
func (p *Program) Fact(key string, init func() any) any {
	v, ok := p.facts[key]
	if !ok {
		v = init()
		p.facts[key] = v
	}
	return v
}

// Pass connects an Analyzer to one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed source files, with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// PkgPath is the import path ("crowdsky/internal/core"); fixture
	// packages loaded by analysistest use their directory name.
	PkgPath string
	// Info holds the type-checker results for Files (Types, Defs, Uses and
	// Selections are populated).
	Info *types.Info

	// report collects diagnostics; the driver sets it.
	report func(Diagnostic)
	// ignores maps file base + line to the analyzer names suppressed
	// there (see BuildIgnores).
	ignores map[ignoreKey]map[string]bool
	// prog is the run-wide fact store; the driver sets it.
	prog *Program
}

// Program returns the run-wide fact store shared by every pass of this
// skylint invocation. It is never nil once the driver has set it; a
// defensive lazy store covers hand-built passes in tests.
func (p *Pass) Program() *Program {
	if p.prog == nil {
		p.prog = NewProgram()
	}
	return p.prog
}

// SetProgram installs the shared fact store; the driver calls it before Run.
func (p *Pass) SetProgram(prog *Program) { p.prog = prog }

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf reports a finding at pos unless a "skylint:ignore" comment on
// the same line (or the line directly above) suppresses this analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.suppressed(pos) {
		return
	}
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

type ignoreKey struct {
	file string
	line int
}

var ignoreRE = regexp.MustCompile(`skylint:ignore\s+([a-z][a-z0-9_,]*)`)

// BuildIgnores scans the package's comments for suppression directives of
// the form
//
//	// skylint:ignore <analyzer>[,<analyzer>...] [reason...]
//
// A directive suppresses the named analyzers on the line it appears on
// and, when the comment stands on a line of its own, on the following
// line. The driver calls this once per package before running analyzers.
func (p *Pass) BuildIgnores() {
	p.ignores = make(map[ignoreKey]map[string]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				names := make(map[string]bool)
				for _, n := range strings.Split(m[1], ",") {
					if n = strings.TrimSpace(n); n != "" {
						names[n] = true
					}
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					key := ignoreKey{pos.Filename, line}
					if p.ignores[key] == nil {
						p.ignores[key] = make(map[string]bool)
					}
					for n := range names {
						p.ignores[key][n] = true
					}
				}
			}
		}
	}
}

func (p *Pass) suppressed(pos token.Pos) bool {
	if p.ignores == nil {
		return false
	}
	pp := p.Fset.Position(pos)
	set := p.ignores[ignoreKey{pp.Filename, pp.Line}]
	return set[p.Analyzer.Name] || set["all"]
}

// SetReporter installs the diagnostic sink; the driver calls it before Run.
func (p *Pass) SetReporter(fn func(Diagnostic)) { p.report = fn }

// TypeOf returns the type of expression e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// NamedOf unwraps pointers and returns the named type behind t, or nil.
func NamedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// ExprString renders an expression compactly for matching and messages
// (selector chains and identifiers only; other expressions fall back to a
// positional placeholder, which never matches a selector chain).
func ExprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return ExprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return ExprString(e.X)
	case *ast.CallExpr:
		return ExprString(e.Fun) + "()"
	case *ast.IndexExpr:
		return ExprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + ExprString(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + ExprString(e.X)
	default:
		return fmt.Sprintf("<expr@%d>", e.Pos())
	}
}
