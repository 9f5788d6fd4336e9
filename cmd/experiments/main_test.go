package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestInvalidFlagsExit runs the command (this test binary, re-run with
// EXPERIMENTS_ARGS set) with an out-of-range or NaN -scale and a -runs
// below 1: each must exit 2 with an error naming the flag, instead of
// falling back to the defaults and starting a paper-scale run.
func TestInvalidFlagsExit(t *testing.T) {
	if args := os.Getenv("EXPERIMENTS_ARGS"); args != "" {
		os.Args = append([]string{"experiments", "-fig", "table1"}, strings.Fields(args)...)
		main()
		return
	}
	for _, c := range []struct{ args, flag string }{
		{"-scale 0", "-scale"},
		{"-scale -1", "-scale"},
		{"-scale NaN", "-scale"},
		{"-scale 7", "-scale"},
		{"-runs 0", "-runs"},
		{"-scale -1 -runs 0", "-scale"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestInvalidFlagsExit$")
		cmd.Env = append(os.Environ(), "EXPERIMENTS_ARGS="+c.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: err = %v, want exit status 2; output:\n%s", c.args, err, out)
		}
		if !strings.Contains(string(out), c.flag) {
			t.Errorf("%s: output does not name %s:\n%s", c.args, c.flag, out)
		}
	}
	for _, c := range []struct {
		scale float64
		runs  int
	}{{0.05, 1}, {1, 10}} {
		if err := checkConfig(c.scale, c.runs); err != nil {
			t.Errorf("checkConfig(%v, %d) = %v, want nil", c.scale, c.runs, err)
		}
	}
}
