// The "skylint:guardedby <mutex>" field annotation: a struct field names
// the mutex field of its own struct that guards it. The lockset analyzer
// (lockset.go) enforces it; lockorder does not read it.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"crowdsky/internal/lint/analysis"
)

var guardedByRE = regexp.MustCompile(`skylint:guardedby\s+([A-Za-z_][A-Za-z0-9_]*)`)

// collectGuardAnnotations adds the package's annotated field objects to
// guarded, each mapped to the mutex key of its guard: `mu` on a field of
// struct type T guards with key pkg.T.mu (mutexKey). An annotation
// naming no field of its struct goes to report instead.
func collectGuardAnnotations(pass *analysis.Pass, guarded map[types.Object]string, report func(pos token.Pos, mu string)) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			tn, _ := pass.Info.Defs[ts.Name].(*types.TypeName)
			if !ok || tn == nil {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardAnnotation(field)
				if mu == "" {
					continue
				}
				f, _, _ := types.LookupFieldOrMethod(tn.Type(), false, tn.Pkg(), mu)
				if v, ok := f.(*types.Var); !ok || !v.IsField() {
					report(field.Pos(), mu)
					continue
				}
				for _, name := range field.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						guarded[obj] = mutexKey(tn, mu)
					}
				}
			}
			return true
		})
	}
}

func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if m := guardedByRE.FindStringSubmatch(c.Text); m != nil {
				return m[1]
			}
		}
	}
	return ""
}
