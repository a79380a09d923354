// Command hierlint runs the simulator's custom static-analysis suite
// (internal/lint) over Go packages and reports invariant violations:
// wall-clock time or unseeded randomness inside internal/, leaked
// Isend/Irecv requests, discarded module-API errors, payload buffers
// shared with unsynchronized goroutines, package-level state reachable from
// a simulation run, free-list allocations that never reach a release, and
// point-to-point tags outside their algorithm's reserved range.
//
// Usage:
//
//	hierlint ./...                 # lint the whole module (the CI gate)
//	hierlint ./internal/coll       # one package
//	hierlint -list                 # show the analyzer catalogue
//	hierlint -run determinism ./...# run a single analyzer
//	hierlint -json ./...           # machine-readable findings
//
// Packages are loaded and analyzed one after another in listing order, test
// files included; the findings are sorted once across all of them.
//
// Exit status is 0 when clean, 1 when any diagnostic is reported, 2 on
// usage or load errors. Suppress an individual finding with a
// `//lint:ignore <analyzer> <reason>` comment on or above the line; see
// docs/STATIC_ANALYSIS.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hierknem/internal/lint"
)

// jsonDiag is one finding in -json output, with a cwd-relative path.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the full -json document: the sorted findings.
type jsonReport struct {
	Diagnostics []jsonDiag `json:"diagnostics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it lints the packages args name from the
// working directory and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hierlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("run", "", "run only the named analyzer (default: all)")
	asJSON := fs.Bool("json", false, "emit findings as JSON on stdout")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "hierlint: %v\n", err)
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.Analyzers
	if *only != "" {
		a := lint.ByName(*only)
		if a == nil {
			return fail(fmt.Errorf("unknown analyzer %q (try -list)", *only))
		}
		analyzers = []*lint.Analyzer{a}
	}

	cwd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	pkgs, err := lint.Load(cwd, fs.Args()...)
	if err != nil {
		return fail(err)
	}
	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, lint.Run(pkg, analyzers)...)
	}
	lint.SortDiagnostics(diags)
	for i := range diags {
		// cwd-relative paths for readability; sorting is unaffected, every
		// path loses the same prefix.
		diags[i].Pos.Filename = strings.TrimPrefix(diags[i].Pos.Filename, cwd+string(filepath.Separator))
	}

	if *asJSON {
		report := jsonReport{Diagnostics: []jsonDiag{}}
		for _, d := range diags {
			report.Diagnostics = append(report.Diagnostics, jsonDiag{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}

	if len(diags) > 0 {
		fmt.Fprintf(stderr, "hierlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
