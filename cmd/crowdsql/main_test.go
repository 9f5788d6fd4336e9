package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestInvalidWorkersExits runs the command (this test binary, re-run with
// CROWDSQL_WORKERS set) with even and non-positive -workers counts: each
// must exit 2 with an error naming the flag before any table is read.
func TestInvalidWorkersExits(t *testing.T) {
	if w := os.Getenv("CROWDSQL_WORKERS"); w != "" {
		os.Args = []string{"crowdsql", "-workers", w, "SELECT * FROM t SKYLINE OF a MIN"}
		main()
		return
	}
	for _, w := range []string{"4", "0", "-3"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestInvalidWorkersExits$")
		cmd.Env = append(os.Environ(), "CROWDSQL_WORKERS="+w)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-workers %s: err = %v, want exit status 2; output:\n%s", w, err, out)
		}
		if !strings.Contains(string(out), "-workers") {
			t.Errorf("-workers %s: output does not name the flag:\n%s", w, out)
		}
	}
}
