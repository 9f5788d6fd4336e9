// Command skylint is the repository's static-analysis gate: it runs the
// five CrowdSky-specific analyzers of internal/lint — the AST contract
// checks (detrange, errdrop), the CFG goroutine-leak check (goroleak) and
// the two lock checks on the call graph and one lock model (lockorder,
// lockset) — and, by default, `go vet`, over the given
// package patterns. A non-empty finding set exits 1, so CI can require
// it:
//
//	go run ./cmd/skylint ./...
//
// Flags:
//
//	-novet           skip the go vet pass (the analyzers still run)
//	-list            print the analyzers and exit
//	-tests           also analyze in-package _test.go files
//	-json            print findings as a JSON array instead of text lines
//	-sarif FILE      additionally write a SARIF 2.1.0 report ("-" = stdout)
//	-callgraph       dump the interprocedural call graph (one line per
//	                 function, edges indented) and exit without running
//	                 analyzers
//
// Text findings are file:line:col-prefixed, one per line, sorted by
// (file, line, col, analyzer) so CI output is stable and diffable. See
// docs/STATIC_ANALYSIS.md for what each analyzer enforces and the
// `skylint:ignore` suppression comment.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"

	"crowdsky/internal/lint"
	"crowdsky/internal/lint/loader"
)

func main() {
	novet := flag.Bool("novet", false, "skip the go vet pass")
	list := flag.Bool("list", false, "list the analyzers and exit")
	tests := flag.Bool("tests", false, "also analyze in-package _test.go files")
	jsonOut := flag.Bool("json", false, "print findings as JSON")
	sarifPath := flag.String("sarif", "", "write a SARIF 2.1.0 report to this file (\"-\" for stdout)")
	dumpGraph := flag.Bool("callgraph", false, "dump the interprocedural call graph and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	if *dumpGraph {
		dump, err := lint.DumpCallGraph(".", patterns, loader.Options{Tests: *tests})
		if err != nil {
			fmt.Fprintf(os.Stderr, "skylint: %v\n", err)
			os.Exit(2)
		}
		fmt.Print(dump)
		return
	}

	failed := false
	if !*novet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			if _, ok := err.(*exec.ExitError); !ok {
				fmt.Fprintf(os.Stderr, "skylint: running go vet: %v\n", err)
			}
			failed = true
		}
	}

	findings, err := lint.Run(".", patterns, lint.All(), loader.Options{Tests: *tests})
	if err != nil {
		fmt.Fprintf(os.Stderr, "skylint: %v\n", err)
		os.Exit(2)
	}

	if *sarifPath != "" {
		doc, err := lint.ToSARIF(findings, lint.All())
		if err != nil {
			fmt.Fprintf(os.Stderr, "skylint: encoding SARIF: %v\n", err)
			os.Exit(2)
		}
		if *sarifPath == "-" {
			fmt.Println(string(doc))
		} else if err := os.WriteFile(*sarifPath, append(doc, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "skylint: writing SARIF: %v\n", err)
			os.Exit(2)
		}
	}

	if *jsonOut {
		doc, err := lint.ToJSON(findings)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skylint: encoding JSON: %v\n", err)
			os.Exit(2)
		}
		fmt.Println(string(doc))
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 || failed {
		os.Exit(1)
	}
}
