// Command hierlint runs the simulator's custom static-analysis suite
// (internal/lint) over Go packages and reports invariant violations:
// wall-clock time or unseeded randomness inside internal/, leaked
// Isend/Irecv requests, discarded module-API errors, payload buffers
// shared with unsynchronized goroutines, free-list allocations that never
// reach a release, point-to-point tags outside their algorithm's reserved
// range, and the hierflow PDES preconditions (vtmono, confine,
// atomicfield — see internal/lint/flow).
//
// Usage:
//
//	hierlint ./...                 # lint the whole module (the CI gate)
//	hierlint ./internal/coll       # one package
//	hierlint -list                 # show the analyzer catalogue
//	hierlint -run determinism ./...# run a single analyzer
//	hierlint -json ./...           # machine-readable findings + timings
//	hierlint -sarif out.sarif ./...# SARIF 2.1.0 for code-scanning upload
//	hierlint -nocache ./...        # force full re-analysis
//	hierlint -parallel 1 ./...     # serial (output is identical either way)
//
// Results are cached per package under -cache (default .hierlint-cache in
// the working directory), keyed on source content and dependency fact
// hashes: a warm run on an untouched tree re-analyzes nothing. A summary
// line on stderr reports cache effectiveness.
//
// Exit status is 0 when clean, 1 when any diagnostic is reported, 2 on
// usage or load errors. Suppress an individual finding with a
// `//lint:ignore <analyzer> <reason>` comment on or above the line; see
// docs/STATIC_ANALYSIS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
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

// jsonReport is the full -json document: sorted findings, then the
// per-package (and per-analyzer, for analyzed packages) timing breakdown.
type jsonReport struct {
	Diagnostics []jsonDiag  `json:"diagnostics"`
	Stats       *lint.Stats `json:"stats"`
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	run := flag.String("run", "", "run only the named analyzer (default: all)")
	asJSON := flag.Bool("json", false, "emit findings and timings as JSON on stdout")
	sarifPath := flag.String("sarif", "", "write findings as SARIF 2.1.0 to the given file")
	cacheDir := flag.String("cache", "", "result cache directory (default .hierlint-cache in the working directory)")
	noCache := flag.Bool("nocache", false, "disable the result cache")
	parallel := flag.Int("parallel", 0, "package analysis workers (0 = one per CPU, capped)")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.Analyzers
	if *run != "" {
		a := lint.ByName(*run)
		if a == nil {
			fmt.Fprintf(os.Stderr, "hierlint: unknown analyzer %q (try -list)\n", *run)
			os.Exit(2)
		}
		analyzers = []*lint.Analyzer{a}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hierlint: %v\n", err)
		os.Exit(2)
	}
	cache := *cacheDir
	if cache == "" {
		cache = lint.DefaultCacheDir(cwd)
	}
	if *noCache {
		cache = ""
	}

	diags, stats, err := lint.Analyze(lint.Options{
		Dir:       cwd,
		Patterns:  patterns,
		Analyzers: analyzers,
		CacheDir:  cache,
		Workers:   *parallel,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hierlint: %v\n", err)
		os.Exit(2)
	}

	if *sarifPath != "" {
		if err := writeSARIF(*sarifPath, cwd, analyzers, diags); err != nil {
			fmt.Fprintf(os.Stderr, "hierlint: %v\n", err)
			os.Exit(2)
		}
	}

	if *asJSON {
		report := jsonReport{Diagnostics: []jsonDiag{}, Stats: stats}
		for _, d := range diags {
			report.Diagnostics = append(report.Diagnostics, jsonDiag{
				File:     relPath(cwd, d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "hierlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(relativize(cwd, d))
		}
	}

	fmt.Fprintf(os.Stderr, "hierlint: %d package(s): %d analyzed, %d cache hit(s)\n",
		stats.Units, stats.Analyzed, stats.CacheHits)
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "hierlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// relPath shortens an absolute path to cwd-relative for readability.
func relPath(cwd, p string) string {
	return strings.TrimPrefix(p, cwd+string(filepath.Separator))
}

// relativize shortens absolute file paths to cwd-relative for readability.
func relativize(cwd string, d lint.Diagnostic) string {
	s := d.String()
	prefix := cwd + string(filepath.Separator)
	return strings.Replace(s, prefix, "", 1)
}
