package lint_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"crowdsky/internal/lint"
	"crowdsky/internal/lint/analysis"
	"crowdsky/internal/lint/loader"
)

// TestFindingsAcrossRoots pins the path contract of lint.Run: findings are
// reported repo-relative with forward slashes, so two checkouts of the
// same tree under different absolute roots produce byte-identical findings.
func TestFindingsAcrossRoots(t *testing.T) {
	const src = `package p

//skylint:hotpath
func Hot() map[int]int {
	return make(map[int]int)
}
`
	writeFixture := func(t *testing.T) string {
		t.Helper()
		root := t.TempDir()
		if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module fixture\n\ngo 1.22\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(filepath.Join(root, "p"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "p", "p.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return root
	}
	run := func(t *testing.T, root string) []lint.Finding {
		t.Helper()
		findings, err := lint.Run(root, []string{"./..."}, []*analysis.Analyzer{lint.HotAlloc}, loader.Options{})
		if err != nil {
			t.Fatalf("lint.Run under %s: %v", root, err)
		}
		if len(findings) == 0 {
			t.Fatalf("fixture under %s produced no findings", root)
		}
		return findings
	}

	f1 := run(t, writeFixture(t))
	f2 := run(t, writeFixture(t))
	if !reflect.DeepEqual(f1, f2) {
		t.Fatalf("findings differ across roots:\n%v\nvs\n%v", f1, f2)
	}
	if want := "p/p.go"; f1[0].File != want {
		t.Fatalf("finding path = %q, want repo-relative slash path %q", f1[0].File, want)
	}

}
