package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, parsed and type-checked package variant. A source
// directory yields up to three variants, mirroring how the go tool builds
// test binaries:
//
//	""      the plain package (GoFiles)
//	"test"  the in-package test variant (GoFiles + TestGoFiles, compiled
//	        together — test files see unexported identifiers)
//	"xtest" the external test package (XTestGoFiles, package foo_test)
//
// PkgPath is the directory's import path for every variant, so
// Analyzer.Applies scoping (path substrings and suffixes) treats test code
// exactly like the code it tests. ReportFiles, when non-nil, restricts
// which files' diagnostics this variant reports: the test variant reports
// only its _test.go files, since the base files were already reported by
// the plain variant.
type Package struct {
	PkgPath     string
	Variant     string
	Dir         string
	Fset        *token.FileSet
	Files       []*ast.File
	ReportFiles map[string]bool
	Types       *types.Package
	TypesInfo   *types.Info
}

// unitMeta is the subset of `go list -json` output the loader needs.
type unitMeta struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Error        *struct{ Err string }
}

// listUnits lists the packages matching patterns. dir anchors the `go`
// invocation, so patterns may be relative (./...) or explicit directories —
// including testdata fixture directories, which the Go tool skips during
// pattern expansion but accepts when named outright.
func listUnits(dir string, patterns []string) ([]*unitMeta, error) {
	args := append([]string{"list",
		"-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles,Error"},
		patterns...)
	out, err := runGo(dir, args...)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(strings.NewReader(out))
	var metas []*unitMeta
	for dec.More() {
		var m unitMeta
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("go list -json: %w", err)
		}
		metas = append(metas, &m)
	}
	return metas, nil
}

// exportLookup builds the compiled export data of the targets' full
// dependency closure, including test-only dependencies (-test), and returns
// the reader importer.ForCompiler resolves imports through. A dependency
// that only a test imports is listed once, as `path [pkg.test]`, so entries
// are keyed by the path with that suffix cut off; an entry listed without
// the suffix wins.
func exportLookup(dir string, patterns []string) (importer.Lookup, error) {
	args := append([]string{"list", "-deps", "-test", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, patterns...)
	out, err := runGo(dir, args...)
	if err != nil {
		return nil, err
	}
	files := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		path, file, ok := strings.Cut(line, "\t")
		if !ok || file == "" {
			continue
		}
		bare, _, variant := strings.Cut(path, " [")
		if _, exists := files[bare]; !exists || !variant {
			files[bare] = file
		}
	}
	return func(path string) (io.ReadCloser, error) {
		file, ok := files[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}, nil
}

// unitImporter resolves imports for one unit's type-checks: in-memory
// packages first (the xtest variant must see the freshly type-checked test
// variant of its own directory, exported test helpers included), compiled
// export data for everything else.
type unitImporter struct {
	exp   types.Importer
	local map[string]*types.Package
}

func (u *unitImporter) Import(path string) (*types.Package, error) {
	if p := u.local[path]; p != nil {
		return p, nil
	}
	return u.exp.Import(path)
}

// loadUnit parses and type-checks every variant of one listed package.
func loadUnit(m *unitMeta, lookup importer.Lookup) ([]*Package, error) {
	if m.Error != nil {
		return nil, fmt.Errorf("go list: %s: %s", m.ImportPath, m.Error.Err)
	}
	fset := token.NewFileSet()
	imp := &unitImporter{
		exp:   importer.ForCompiler(fset, "gc", lookup),
		local: map[string]*types.Package{},
	}
	parse := func(names []string) ([]*ast.File, error) {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(m.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		return files, nil
	}
	check := func(path string, files []*ast.File) (*types.Package, *types.Info, error) {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			return nil, nil, fmt.Errorf("typecheck %s: %w", path, err)
		}
		return tpkg, info, nil
	}
	fileSet := func(names []string) map[string]bool {
		s := make(map[string]bool, len(names))
		for _, name := range names {
			s[filepath.Join(m.Dir, name)] = true
		}
		return s
	}

	var pkgs []*Package
	baseFiles, err := parse(m.GoFiles)
	if err != nil {
		return nil, err
	}
	if len(baseFiles) > 0 {
		tpkg, info, err := check(m.ImportPath, baseFiles)
		if err != nil {
			return nil, err
		}
		imp.local[m.ImportPath] = tpkg
		pkgs = append(pkgs, &Package{
			PkgPath: m.ImportPath, Variant: "", Dir: m.Dir,
			Fset: fset, Files: baseFiles, Types: tpkg, TypesInfo: info,
		})
	}
	if len(m.TestGoFiles) > 0 {
		testFiles, err := parse(m.TestGoFiles)
		if err != nil {
			return nil, err
		}
		all := append(append([]*ast.File{}, baseFiles...), testFiles...)
		tpkg, info, err := check(m.ImportPath, all)
		if err != nil {
			return nil, err
		}
		imp.local[m.ImportPath] = tpkg // xtest sees test-variant exports
		pkgs = append(pkgs, &Package{
			PkgPath: m.ImportPath, Variant: "test", Dir: m.Dir,
			Fset: fset, Files: all, ReportFiles: fileSet(m.TestGoFiles),
			Types: tpkg, TypesInfo: info,
		})
	}
	if len(m.XTestGoFiles) > 0 {
		xFiles, err := parse(m.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		tpkg, info, err := check(m.ImportPath+"_test", xFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, &Package{
			PkgPath: m.ImportPath, Variant: "xtest", Dir: m.Dir,
			Fset: fset, Files: xFiles, Types: tpkg, TypesInfo: info,
		})
	}
	return pkgs, nil
}

// Load lists, parses and type-checks the packages matching patterns —
// every variant, test files included — resolving imports (stdlib and
// module-internal alike) through the build cache's compiled export data.
// Only the `go` tool itself is shelled out to; the analysis is pure
// go/ast + go/types.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	metas, err := listUnits(dir, patterns)
	if err != nil {
		return nil, err
	}
	lookup, err := exportLookup(dir, patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, m := range metas {
		ps, err := loadUnit(m, lookup)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, ps...)
	}
	return pkgs, nil
}

func runGo(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String(), nil
}
