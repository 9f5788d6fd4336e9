package main

import (
	"strings"
	"testing"
)

func TestCompareReportsFlagsRegressions(t *testing.T) {
	base := report{
		Go: "go1.22", GOARCH: "amd64", CPUs: 8,
		Results: []result{
			{Op: "index_build", N: 1000, NsPerOp: 1000},
			{Op: "oracle_skyline_index", N: 1000, NsPerOp: 2000},
			{Op: "only_in_base", N: 1000, NsPerOp: 50},
		},
	}
	cur := report{
		Go: "go1.22", GOARCH: "amd64", CPUs: 8,
		Results: []result{
			{Op: "index_build", N: 1000, NsPerOp: 1200},          // +20%: regression
			{Op: "oracle_skyline_index", N: 1000, NsPerOp: 1900}, // -5%: fine
			{Op: "only_in_current", N: 1000, NsPerOp: 10},        // no baseline
		},
	}
	var sb strings.Builder
	got := compareReports(&sb, "BENCH_PR4.json", base, cur, 0.10)
	if got != 1 {
		t.Errorf("regressions = %d, want 1\n%s", got, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "index_build | 1000 | 1000 | 1200 | +20.0% ⚠️ | 0 | 0 |") {
		t.Errorf("regression row missing or mis-rendered:\n%s", out)
	}
	if !strings.Contains(out, "1 of 2 ops regressed") {
		t.Errorf("summary line wrong:\n%s", out)
	}
	if strings.Contains(out, "only_in_base") || strings.Contains(out, "only_in_current") {
		t.Errorf("non-overlapping ops must be skipped:\n%s", out)
	}
	if strings.Contains(out, "environment differs") {
		t.Errorf("matching environments flagged as different:\n%s", out)
	}
}

func TestCompareReportsEnvMismatchAndClean(t *testing.T) {
	base := report{Go: "go1.21", GOARCH: "arm64", CPUs: 4,
		Results: []result{{Op: "index_build", N: 1000, NsPerOp: 1000}}}
	cur := report{Go: "go1.22", GOARCH: "amd64", CPUs: 8,
		Results: []result{{Op: "index_build", N: 1000, NsPerOp: 1050}}}
	var sb strings.Builder
	if got := compareReports(&sb, "b.json", base, cur, 0.10); got != 0 {
		t.Errorf("regressions = %d, want 0", got)
	}
	out := sb.String()
	if !strings.Contains(out, "environment differs") {
		t.Errorf("env mismatch not noted:\n%s", out)
	}
	if !strings.Contains(out, "no ns/op regressions above 10%") {
		t.Errorf("clean summary missing:\n%s", out)
	}
}

// TestCompareReportsMemoryColumns pins the B/op and allocs/op rendering:
// unchanged values print bare, changed values print base→cur, and an op
// that was allocation-free in the baseline but allocates now counts as a
// regression even with ns/op flat (allocation counts are machine-stable,
// so this flag is reliable where the timing gate is soft). A row that is
// both slower and newly allocating still counts once.
func TestCompareReportsMemoryColumns(t *testing.T) {
	base := report{Go: "go1.22", GOARCH: "amd64", CPUs: 8,
		Results: []result{
			{Op: "index_dominates", N: 1000, NsPerOp: 100, BytesPerOp: 0, AllocsPerOp: 0},
			{Op: "index_build", N: 1000, NsPerOp: 1000, BytesPerOp: 4096, AllocsPerOp: 12},
		}}
	cur := report{Go: "go1.22", GOARCH: "amd64", CPUs: 8,
		Results: []result{
			{Op: "index_dominates", N: 1000, NsPerOp: 101, BytesPerOp: 16, AllocsPerOp: 1},
			{Op: "index_build", N: 1000, NsPerOp: 1010, BytesPerOp: 4096, AllocsPerOp: 12},
		}}
	var sb strings.Builder
	got := compareReports(&sb, "b.json", base, cur, 0.10)
	if got != 1 {
		t.Errorf("regressions = %d, want 1 (new allocation on a zero-alloc op)\n%s", got, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "| 0→16 | 0→1 ⚠️ |") {
		t.Errorf("changed memory columns mis-rendered:\n%s", out)
	}
	if !strings.Contains(out, "| 4096 | 12 |") {
		t.Errorf("unchanged memory columns mis-rendered:\n%s", out)
	}

	// Slower by 20% and newly allocating: both marks, one regression.
	cur.Results[0].NsPerOp = 120
	sb.Reset()
	if got := compareReports(&sb, "b.json", base, cur, 0.10); got != 1 {
		t.Errorf("regressions = %d, want 1 (one row, two marks)\n%s", got, sb.String())
	}
	out = sb.String()
	if !strings.Contains(out, "| +20.0% ⚠️ | 0→16 | 0→1 ⚠️ |") {
		t.Errorf("doubly flagged row mis-rendered:\n%s", out)
	}
	if !strings.Contains(out, "1 of 2 ops regressed") {
		t.Errorf("summary line wrong:\n%s", out)
	}
}

func TestCompareReportsNoOverlap(t *testing.T) {
	var sb strings.Builder
	compareReports(&sb, "b.json", report{}, report{
		Results: []result{{Op: "x", N: 1, NsPerOp: 5}},
	}, 0.10)
	if !strings.Contains(sb.String(), "nothing compared") {
		t.Errorf("empty overlap not reported:\n%s", sb.String())
	}
}
