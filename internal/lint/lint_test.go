package lint_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"crowdsky/internal/lint"
	"crowdsky/internal/lint/analysis"
	"crowdsky/internal/lint/analysistest"
	"crowdsky/internal/lint/loader"
)

// TestAnalyzerFixtures runs every registered analyzer over its fixture
// directory: the registry and the fixture set are forced to stay in sync
// (an analyzer without testdata/<name> fails its subtest).
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range lint.All() {
		t.Run(a.Name, func(t *testing.T) {
			analysistest.Run(t, filepath.Join("testdata", a.Name), a)
		})
	}
}

// TestCrossPackageChain runs hotalloc over the two-package fixture: the
// root is in package hot, the allocation two hops down in package
// kernel, and the finding must carry the full cross-package chain. This
// is the acceptance check for interprocedural summary propagation.
func TestCrossPackageChain(t *testing.T) {
	analysistest.RunMulti(t, filepath.Join("testdata", "callgraph"),
		[]string{"hot", "kernel"}, lint.HotAlloc)
}

// TestCrowdTaintJournal runs crowdtaint over the two-package recovery
// fixture: journal.Read results are a taint source in the consuming
// package, reaching a persistent map key and a slice index.
func TestCrowdTaintJournal(t *testing.T) {
	analysistest.RunMulti(t, filepath.Join("testdata", "crowdtaintjournal"),
		[]string{"journal", "replay"}, lint.CrowdTaint)
}

// TestLocksetCrossPackage runs lockset over a two-package module: a
// field guarded in package a and written without its mutex from package
// b must be reported in b. The guarded-field table is keyed by
// types.Object, so this holds only when b's import of a is the very
// *types.Package the loader checked for a.
func TestLocksetCrossPackage(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module lockmod\n\ngo 1.22\n",
		"a/a.go": `package a

import "sync"

type S struct {
	mu sync.Mutex
	N  int // skylint:guardedby mu
}

func (s *S) Reset() { s.N = 0 }
`,
		"b/b.go": `package b

import "lockmod/a"

func Bump(s *a.S) { s.N++ }
`,
	}
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	findings, err := lint.Run(root, []string{"./..."}, []*analysis.Analyzer{lint.Lockset}, loader.Options{})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s:%d", f.File, f.Line))
	}
	for _, want := range []string{"a/a.go:10", "b/b.go:5"} {
		if !slices.Contains(got, want) {
			t.Errorf("no lockset finding at %s; got %v", want, got)
		}
	}
}

// TestAnalyzerRegistry pins the analyzer set: removing one from All()
// silently removes a correctness contract from CI.
func TestAnalyzerRegistry(t *testing.T) {
	want := []string{
		"detrange", "floateq", "errdrop",
		"lockorder", "ctxleak", "wgbalance", "goroleak", "traceschema",
		"hotalloc", "recvcopy", "purity",
		"nilness", "lockset", "crowdtaint",
	}
	all := lint.All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
	}
}

// TestSortFindings pins the deterministic diagnostic order: (file, line,
// col, analyzer, message), numerically — not the lexical position-string
// order where line 10 sorts before line 2.
func TestSortFindings(t *testing.T) {
	findings := []lint.Finding{
		{File: "b.go", Line: 1, Col: 1, Analyzer: "zz", Message: "m"},
		{File: "a.go", Line: 10, Col: 1, Analyzer: "aa", Message: "m"},
		{File: "a.go", Line: 2, Col: 7, Analyzer: "aa", Message: "m"},
		{File: "a.go", Line: 2, Col: 3, Analyzer: "bb", Message: "m"},
		{File: "a.go", Line: 2, Col: 3, Analyzer: "aa", Message: "n"},
		{File: "a.go", Line: 2, Col: 3, Analyzer: "aa", Message: "m"},
	}
	lint.SortFindings(findings)
	got := make([]string, len(findings))
	for i, f := range findings {
		got[i] = f.Position() + " " + f.Analyzer + " " + f.Message
	}
	want := []string{
		"a.go:2:3 aa m",
		"a.go:2:3 aa n",
		"a.go:2:3 bb m",
		"a.go:2:7 aa m",
		"a.go:10:1 aa m", // numeric: 10 after 2
		"b.go:1:1 zz m",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("after sort [%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestToSARIF checks the -sarif output is structurally valid SARIF 2.1.0:
// version, schema, one run with driver rules, and one result per finding
// with a physical location.
func TestToSARIF(t *testing.T) {
	findings := []lint.Finding{
		{File: "internal/crowd/crowd.go", Line: 12, Col: 3, Analyzer: "ctxleak", Message: "leak"},
		{File: "internal/core/skyline.go", Line: 40, Col: 9, Analyzer: "floateq", Message: "eq"},
	}
	raw, err := lint.ToSARIF(findings, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if v := doc["version"]; v != "2.1.0" {
		t.Errorf("version = %v, want 2.1.0", v)
	}
	if s, _ := doc["$schema"].(string); s == "" {
		t.Error("missing $schema")
	}
	runs, _ := doc["runs"].([]any)
	if len(runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(runs))
	}
	run := runs[0].(map[string]any)
	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if driver["name"] != "skylint" {
		t.Errorf("driver name = %v", driver["name"])
	}
	if rules, _ := driver["rules"].([]any); len(rules) != len(lint.All()) {
		t.Errorf("driver rules = %d, want %d", len(rules), len(lint.All()))
	}
	results, _ := run["results"].([]any)
	if len(results) != len(findings) {
		t.Fatalf("results = %d, want %d", len(results), len(findings))
	}
	first := results[0].(map[string]any)
	if first["ruleId"] != "ctxleak" {
		t.Errorf("ruleId = %v", first["ruleId"])
	}
	locs := first["locations"].([]any)
	phys := locs[0].(map[string]any)["physicalLocation"].(map[string]any)
	uri := phys["artifactLocation"].(map[string]any)["uri"]
	if uri != "internal/crowd/crowd.go" {
		t.Errorf("uri = %v", uri)
	}
	region := phys["region"].(map[string]any)
	if region["startLine"] != float64(12) || region["startColumn"] != float64(3) {
		t.Errorf("region = %v", region)
	}
}

// TestToSARIFDedupAndRuleIndex pins two stability properties: identical
// findings surfaced from multiple package roots collapse into one SARIF
// result, and every result's ruleIndex points at its rule in the driver
// rules array — which is All() order, so indexes cannot drift between
// runs or flag combinations.
func TestToSARIFDedupAndRuleIndex(t *testing.T) {
	dup := lint.Finding{File: "internal/crowd/crowd.go", Line: 12, Col: 3, Analyzer: "ctxleak", Message: "leak"}
	findings := []lint.Finding{
		dup,
		dup, // same package loaded under a second root
		{File: "internal/core/skyline.go", Line: 40, Col: 9, Analyzer: "floateq", Message: "eq"},
	}
	raw, err := lint.ToSARIF(findings, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []struct {
			Tool struct {
				Driver struct {
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	run := doc.Runs[0]
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2 (duplicate finding not collapsed)", len(run.Results))
	}
	for _, res := range run.Results {
		if res.RuleIndex < 0 || res.RuleIndex >= len(run.Tool.Driver.Rules) {
			t.Fatalf("ruleIndex %d out of range for %s", res.RuleIndex, res.RuleID)
		}
		if got := run.Tool.Driver.Rules[res.RuleIndex].ID; got != res.RuleID {
			t.Errorf("ruleIndex %d resolves to rule %q, want %q", res.RuleIndex, got, res.RuleID)
		}
	}
}
