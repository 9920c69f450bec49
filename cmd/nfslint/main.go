// Command nfslint runs the analyzers of DESIGN.md §11 (walltime,
// seededrand, maporder, keyfmt, unusedexport) over Go packages.
//
// It takes package patterns like the go tool:
//
//	go run ./cmd/nfslint ./...
//
// It loads the matched packages, plus as consumers the rest of the
// main module and every module nested under the working directory
// (bench/), runs every analyzer, prints findings to stdout as
// file:line:col: message (analyzer), and exits 2 if there were any.
// It sees the whole program at once, so the repo-wide seededrand salt
// check and unusedexport are exact.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
	"repro/internal/lint/loader"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it returns the process exit code
// (0 clean, 1 operational error, 2 findings).
func run(args []string, stdout, stderr io.Writer) int {
	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, consumers, err := loader.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "nfslint:", err)
		return 1
	}
	diags, err := lint.Check(pkgs, consumers)
	if err != nil {
		fmt.Fprintln(stderr, "nfslint:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
