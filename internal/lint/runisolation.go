package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// RunIsolationAnalyzer enforces the invariant behind the parallel sweep
// runner (internal/sweep): simulations running on concurrent goroutines
// must share no mutable state. Every engine, world, pool and cache lives
// behind a *World or *Engine, so any number of simulations can run side by
// side and each stays bit-for-bit identical to a solo run. A package-level
// variable written at runtime punches a hole in that isolation twice over:
// it is a data race under -race, and — even when the race is benign — a
// cross-run information channel that can make run N's result depend on how
// many siblings ran before it.
//
// Two exemptions:
//
//   - sync/atomic types (atomic.Bool, atomic.Uint64, ...). These are
//     race-free by construction and sanctioned for values whose numeric
//     identity is immaterial to simulation results — opaque ID counters
//     (buffer.nextID).
//
//   - effectively constant basic-typed vars: a var of basic type that is
//     never assigned outside its declaration, never incremented, and never
//     has its address taken is a constant in all but spelling
//     (e.g. asp.Inf = math.Inf(1), which Go cannot declare `const`).
//     The analysis sees one package at a time, so this exemption trusts
//     that no other package writes an exported var — true today because
//     flagging is per-declaration and every internal package is scanned.
//
// Composite-typed vars (maps, slices, pointers, structs) get no
// effectively-constant exemption: they can be mutated through the
// reference without any assignment to the variable itself.
//
// internal/lint itself is excluded: the analyzer registry is a write-once
// composite, and the linter never runs inside a simulation.
var RunIsolationAnalyzer = &Analyzer{
	Name: "runisolation",
	Doc:  "forbid non-atomic package-level mutable state shared across concurrent simulations",
	Applies: func(pkgPath string) bool {
		return strings.Contains(pkgPath, "internal/") && !strings.HasSuffix(pkgPath, "internal/lint")
	},
	Run: runRunIsolation,
}

func runRunIsolation(pass *Pass) {
	info := pass.Info()

	// Package-level var objects, keyed for the write scan.
	type varDecl struct {
		name *ast.Ident
		obj  *types.Var
	}
	var decls []varDecl
	declared := map[*types.Var]bool{}
	for _, f := range pass.Files() {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					obj, ok := info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					decls = append(decls, varDecl{name, obj})
					declared[obj] = true
				}
			}
		}
	}
	if len(decls) == 0 {
		return
	}

	// Scan the whole package for writes to (or addresses of) those vars.
	// The declaration itself is a ValueSpec, not an AssignStmt, so any
	// assignment found here is a runtime mutation.
	written := map[*types.Var]bool{}
	markIdent := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && declared[v] {
				written[v] = true
			}
		}
	}
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markIdent(lhs)
				}
			case *ast.IncDecStmt:
				markIdent(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					markIdent(n.X)
				}
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					markIdent(n.Key)
					if n.Value != nil {
						markIdent(n.Value)
					}
				}
			}
			return true
		})
	}

	for _, d := range decls {
		if isAtomicType(d.obj.Type()) {
			continue
		}
		_, basic := d.obj.Type().Underlying().(*types.Basic)
		if basic && !written[d.obj] {
			continue // effectively constant
		}
		what := "is mutated at runtime"
		if !written[d.obj] {
			what = "has a mutable (composite) type"
		}
		pass.Reportf(d.name.Pos(),
			"package-level var %s %s and is shared across concurrently running simulations; move it into World/Engine state or use sync/atomic",
			d.name.Name, what)
	}
}

// isAtomicType reports whether t is (a pointer to) a named type from
// sync/atomic.
func isAtomicType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return pkgPathOf(named.Obj()) == "sync/atomic"
}
