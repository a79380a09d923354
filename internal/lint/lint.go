// Package lint is hierlint's analysis framework: a small, stdlib-only
// (go/ast + go/types) multi-analyzer pass that enforces the simulator
// invariants no test checks.
//
// The reproduction's claims rest on two properties the compiler cannot
// check and a passing suite does not prove:
//
//   - Error hygiene of the simulated MPI layer. A silently discarded error
//     from the runtime turns a simulated deadlock or a bad binding into a
//     subtly wrong timing curve. (Request hygiene is checked at run time:
//     mpi.World.Run reports requests a rank never waited on.)
//
//   - Isolation of concurrent runs. Sweep jobs run side by side, so
//     package-level mutable state in internal/ is a channel between
//     simulations that should share nothing.
//
// Each Analyzer inspects one invariant. Diagnostics can be suppressed with
// a trailing or preceding directive comment:
//
//	//lint:ignore <analyzer> <reason>
//
// which silences that analyzer on the directive's own line and on the line
// immediately below it. The reason is mandatory, and the analyzer must be
// registered: any other directive suppresses nothing and is itself
// reported. See docs/STATIC_ANALYSIS.md for the catalogue.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Files and Info are shorthands into the loaded package.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }
func (p *Pass) Info() *types.Info  { return p.Pkg.TypesInfo }

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string // short lowercase identifier, used in directives and output
	Doc  string // one-line description

	// Applies filters packages; nil means the analyzer runs everywhere.
	Applies func(pkgPath string) bool

	Run func(*Pass)
}

// Analyzers is the registry, in deterministic (registration) order.
var Analyzers = []*Analyzer{
	ErrcheckAnalyzer,
	RunIsolationAnalyzer,
}

// ByName returns the registered analyzer with that name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies each analyzer in as to pkg and returns the surviving
// diagnostics in deterministic order (see SortDiagnostics), with one
// "lint"-analyzer finding appended for every malformed //lint:ignore
// directive in the package. When the variant restricts reporting
// (Package.ReportFiles), diagnostics outside those files are dropped — the
// plain variant already reported them.
func Run(pkg *Package, as []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range as {
		if a.Applies != nil && !a.Applies(pkg.PkgPath) {
			continue
		}
		a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags})
	}
	dir := parseDirectives(pkg)
	kept := diags[:0]
	for _, d := range diags {
		if !dir.suppressed(d) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, dir.malformed...)
	if pkg.ReportFiles != nil {
		filtered := kept[:0]
		for _, d := range kept {
			if pkg.ReportFiles[d.Pos.Filename] {
				filtered = append(filtered, d)
			}
		}
		kept = filtered
	}
	SortDiagnostics(kept)
	return kept
}

// SortDiagnostics orders findings by (file, line, analyzer, column, message)
// so hierlint's output is byte-stable across runs regardless of analyzer
// registration order or package load interleaving. The CLI applies it once
// more across all packages before printing.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// pkgPathOf returns the import path of the package an object belongs to, or
// "" for builtins and package-less objects.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// calleeObj resolves the called function or method of call, seeing through
// parentheses; nil when the callee is not a named function (e.g. a func
// value or a conversion).
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if o, ok := info.ObjectOf(fn).(*types.Func); ok {
			return o
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj() // method or field; fields filtered by caller
		}
		if o, ok := info.ObjectOf(fn.Sel).(*types.Func); ok {
			return o // package-qualified function
		}
	}
	return nil
}

// resultTypes returns the result tuple of the called signature, or nil.
func resultTypes(info *types.Info, call *ast.CallExpr) *types.Tuple {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	return sig.Results()
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
