package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadDatasetDemos(t *testing.T) {
	cases := map[string]int{"toy": 12, "rectangles": 50, "movies": 50, "mlb": 40}
	for demo, wantN := range cases {
		d, err := loadDataset(demo, "", "", "", "")
		if err != nil {
			t.Fatalf("%s: %v", demo, err)
		}
		if d.N() != wantN {
			t.Errorf("%s: n = %d, want %d", demo, d.N(), wantN)
		}
	}
}

func TestLoadDatasetErrors(t *testing.T) {
	if _, err := loadDataset("bogus", "", "", "", ""); err == nil {
		t.Errorf("unknown demo accepted")
	}
	if _, err := loadDataset("", "", "", "", ""); err == nil {
		t.Errorf("missing csv accepted")
	}
	if _, err := loadDataset("", "some.csv", "", "", ""); err == nil {
		t.Errorf("missing -known accepted")
	}
	if _, err := loadDataset("", "/nonexistent/file.csv", "", "a", ""); err == nil {
		t.Errorf("unreadable csv accepted")
	}
}

func TestLoadDatasetFromCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	csv := "title,gross,year,rating\nAlpha,100,2001,7.5\nBeta,200,2003,8.1\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := loadDataset("", path, "title", "-gross,-year", "-rating")
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 2 || d.KnownDims() != 2 || d.CrowdDims() != 1 {
		t.Fatalf("shape wrong: %v", d)
	}
	if d.Name(0) != "Alpha" {
		t.Errorf("name = %q", d.Name(0))
	}
}

func TestDescribeTuple(t *testing.T) {
	d, err := loadDataset("toy", "", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	got := describeTuple(d, d.Index("b"))
	if !strings.Contains(got, "b (") || !strings.Contains(got, "A1=1") {
		t.Errorf("describeTuple = %q", got)
	}
}

// TestInvalidReliabilityExits runs the command (this test binary, re-run
// with CROWDSKY_RELIABILITY set) with out-of-range and NaN -reliability
// values: each must exit 2 with an error naming the flag, instead of
// running a crowd nobody asked for.
func TestInvalidReliabilityExits(t *testing.T) {
	if r := os.Getenv("CROWDSKY_RELIABILITY"); r != "" {
		os.Args = []string{"crowdsky", "-demo", "toy", "-reliability", r}
		main()
		return
	}
	for _, r := range []string{"-1", "1.5", "NaN"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestInvalidReliabilityExits$")
		cmd.Env = append(os.Environ(), "CROWDSKY_RELIABILITY="+r)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-reliability %s: err = %v, want exit status 2; output:\n%s", r, err, out)
		}
		if !strings.Contains(string(out), "-reliability") {
			t.Errorf("-reliability %s: output does not name the flag:\n%s", r, out)
		}
	}
	for _, p := range []float64{0, 0.9, 1} {
		if err := checkReliability(p); err != nil {
			t.Errorf("checkReliability(%v) = %v, want nil", p, err)
		}
	}
}

// TestInvalidWorkersExits runs the command (this test binary, re-run with
// CROWDSKY_WORKERS set) with -workers counts majority voting cannot use,
// even, negative, or 1 under -dynamic: each must exit 2 with an error
// naming the flag, instead of running votes that split evenly or silently
// dropping the policy.
func TestInvalidWorkersExits(t *testing.T) {
	if w := os.Getenv("CROWDSKY_WORKERS"); w != "" {
		os.Args = append([]string{"crowdsky", "-demo", "toy"}, strings.Fields(w)...)
		main()
		return
	}
	for _, tc := range []struct{ args, flag string }{
		{"-workers 4", "-workers"},
		{"-workers 0", "-workers"},
		{"-workers -3", "-workers"},
		{"-dynamic -workers 1", "-dynamic"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestInvalidWorkersExits$")
		cmd.Env = append(os.Environ(), "CROWDSKY_WORKERS="+tc.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: err = %v, want exit status 2; output:\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.flag) {
			t.Errorf("%s: output does not name %s:\n%s", tc.args, tc.flag, out)
		}
	}
	for _, tc := range []struct {
		workers int
		dynamic bool
	}{{1, false}, {3, false}, {5, false}, {3, true}, {5, true}} {
		if err := checkWorkers(tc.workers, tc.dynamic); err != nil {
			t.Errorf("checkWorkers(%d, %v) = %v, want nil", tc.workers, tc.dynamic, err)
		}
	}
}
