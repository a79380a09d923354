// Package flow is hierlint's interprocedural dataflow layer ("hierflow").
// It turns one type-checked package (go/ast + go/types, nothing else) into
// the three structures the PDES-precondition analyzers need:
//
//   - Def-use chains per function: every local variable's definition sites
//     (declaration, assignment, range binding, augmented assignment) in
//     lexical order, with position-ordered reaching-definition lookup — a
//     pruned SSA over the AST, precise enough for straight-line staleness
//     and derivation questions, conservative across branches and loops.
//
//   - A call graph: every static call site resolved to its *types.Func,
//     so properties can propagate through helpers instead of stopping at
//     the first function boundary.
//
//   - Summary facts per function (see facts.go), computed to a fixed
//     point over the in-package call graph and seeded from the facts of
//     imported packages, so the analysis is interprocedural across the
//     whole module while each package is still analyzed alone. Facts
//     serialize deterministically; the driver persists them per package
//     and feeds dependents, which is also what makes the result cache's
//     early cutoff sound for fact-dependent analyzers.
//
// Source markers (reason-mandatory, like //lint:ignore) declare the
// domain knowledge the analyzers check against:
//
//	//hierflow:component               on a type: its reachable state is
//	                                   one PDES partition cell (confine)
//	//hierflow:sync <reason>           on a func: designated cross-component
//	                                   membership/sync API (confine)
//	//hierflow:serial <reason>         on/above a go statement: the spawned
//	                                   goroutine is serialized with its
//	                                   spawner (atomicfield)
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Info is the dataflow view of one loaded package variant.
type Info struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	Funcs []*FuncInfo // declaration order

	Markers  Markers
	Imported *FactSet // dependency facts; may be nil
	Own      *FactSet // this package's computed facts (base for export)
}

// FuncInfo is the def-use view of one function declaration, including any
// function literals nested in its body (their locals share the table —
// types.Var objects are unique, and positions stay lexically ordered).
type FuncInfo struct {
	info *Info
	Decl *ast.FuncDecl
	Obj  *types.Func

	Calls  []Call
	defs   map[*types.Var][]Def
	params map[*types.Var]int // signature param index; receiver = -1
}

// Call is one static call site inside a function.
type Call struct {
	Expr   *ast.CallExpr
	Callee *types.Func // nil for func values, conversions, builtins
}

// Def is one definition of a local variable.
type Def struct {
	Pos       token.Pos
	RHS       ast.Expr // nil for parameters and zero-value declarations
	Range     bool     // RHS is the container being ranged over
	Augmented bool     // op=, ++, --: the prior value flows into this def
}

// Build constructs the dataflow view and computes the package's summary
// facts to a fixed point. imported may be nil.
func Build(pkgPath string, fset *token.FileSet, files []*ast.File, tpkg *types.Package, tinfo *types.Info, imported *FactSet) *Info {
	in := &Info{
		PkgPath:   pkgPath,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: tinfo,
		Imported:  imported,
	}
	in.Markers = scanMarkers(fset, files, tinfo)
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := tinfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := buildFunc(in, fd, obj)
			in.Funcs = append(in.Funcs, fi)
		}
	}
	computeFacts(in)
	return in
}

// buildFunc walks one declaration collecting defs and calls.
func buildFunc(in *Info, fd *ast.FuncDecl, obj *types.Func) *FuncInfo {
	fi := &FuncInfo{info: in, Decl: fd, Obj: obj,
		defs: map[*types.Var][]Def{}, params: map[*types.Var]int{}}
	info := in.TypesInfo

	bindField := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					fi.defs[v] = append(fi.defs[v], Def{Pos: name.Pos()})
				}
			}
		}
	}
	if fd.Recv != nil {
		bindField(fd.Recv)
		for _, f := range fd.Recv.List {
			for _, name := range f.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					fi.params[v] = -1
				}
			}
		}
	}
	bindField(fd.Type.Params)
	bindField(fd.Type.Results)
	if sig, ok := obj.Type().(*types.Signature); ok {
		for i := 0; i < sig.Params().Len(); i++ {
			fi.params[sig.Params().At(i)] = i
		}
	}

	addDef := func(id *ast.Ident, d Def) {
		if id == nil || id.Name == "_" {
			return
		}
		v, ok := info.Defs[id].(*types.Var)
		if !ok {
			v, ok = info.Uses[id].(*types.Var)
		}
		if !ok {
			return
		}
		d.Pos = id.Pos()
		fi.defs[v] = append(fi.defs[v], d)
	}

	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			bindField(n.Type.Params)
			bindField(n.Type.Results)
		case *ast.GenDecl:
			if n.Tok != token.VAR {
				return true
			}
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					switch {
					case len(vs.Values) == len(vs.Names):
						rhs = vs.Values[i]
					case len(vs.Values) == 1:
						rhs = vs.Values[0]
					}
					addDef(name, Def{RHS: rhs})
				}
			}
		case *ast.AssignStmt:
			aug := n.Tok != token.ASSIGN && n.Tok != token.DEFINE
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				var rhs ast.Expr
				switch {
				case len(n.Rhs) == len(n.Lhs):
					rhs = n.Rhs[i]
				case len(n.Rhs) == 1:
					rhs = n.Rhs[0]
				}
				addDef(id, Def{RHS: rhs, Augmented: aug})
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				addDef(id, Def{Augmented: true})
			}
		case *ast.RangeStmt:
			if id, ok := n.Key.(*ast.Ident); ok {
				addDef(id, Def{RHS: n.X, Range: true})
			}
			if id, ok := n.Value.(*ast.Ident); ok {
				addDef(id, Def{RHS: n.X, Range: true})
			}
		case *ast.CallExpr:
			fi.Calls = append(fi.Calls, Call{Expr: n, Callee: CalleeFunc(info, n)})
		}
		return true
	})

	for v := range fi.defs {
		ds := fi.defs[v]
		sort.Slice(ds, func(i, j int) bool { return ds[i].Pos < ds[j].Pos })
	}
	return fi
}

// Reaching returns the last definition of v lexically before pos, or nil.
// This is the pruned-SSA approximation: exact on straight-line code,
// conservative across branches (the textually latest prior def wins) and
// loop back-edges (a later-in-body def does not reach an earlier use).
func (fi *FuncInfo) Reaching(v *types.Var, pos token.Pos) *Def {
	ds := fi.defs[v]
	i := sort.Search(len(ds), func(i int) bool { return ds[i].Pos >= pos })
	if i == 0 {
		return nil
	}
	return &ds[i-1]
}

// Local reports whether v is one of the function's tracked locals.
func (fi *FuncInfo) Local(v *types.Var) bool { _, ok := fi.defs[v]; return ok }

// ParamIndex returns v's signature parameter index (receiver -1) and
// whether v is a parameter of the function.
func (fi *FuncInfo) ParamIndex(v *types.Var) (int, bool) { i, ok := fi.params[v]; return i, ok }

// CalleeFunc resolves the called function or method of a call expression,
// seeing through parentheses; nil when the callee is not a named function.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if o, ok := info.ObjectOf(fn).(*types.Func); ok {
			return o
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			if o, ok := sel.Obj().(*types.Func); ok {
				return o
			}
			return nil
		}
		if o, ok := info.ObjectOf(fn.Sel).(*types.Func); ok {
			return o
		}
	}
	return nil
}

// ReceiverExpr returns the receiver expression of a method call, or nil
// for package-level calls and func values.
func ReceiverExpr(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if _, ok := info.Selections[sel]; !ok {
		return nil // package-qualified call: X is a package name
	}
	return sel.X
}

// ---- markers ----

// Marker directives carry domain knowledge into the analyzers. sync and
// serial markers are exemptions, so — like //lint:ignore — they must say
// why; a reasonless one declares nothing and is reported as malformed.
const (
	markerComponent = "//hierflow:component"
	markerSync      = "//hierflow:sync"
	markerSerial    = "//hierflow:serial"
)

// Malformed is a marker that cannot take effect (missing reason).
type Malformed struct {
	Pos     token.Position
	Message string
}

// Markers is one package's parsed hierflow directive table.
type Markers struct {
	confined  map[*types.TypeName]bool
	syncFns   map[*types.Func]bool
	serialGo  map[lineKey]bool
	Malformed []Malformed
}

type lineKey struct {
	file string
	line int
}

func scanMarkers(fset *token.FileSet, files []*ast.File, info *types.Info) Markers {
	m := Markers{
		confined: map[*types.TypeName]bool{},
		syncFns:  map[*types.Func]bool{},
		serialGo: map[lineKey]bool{},
	}
	hasMarker := func(cg *ast.CommentGroup, marker string) (found, reasoned bool) {
		if cg == nil {
			return false, false
		}
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, marker)
			if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
				continue
			}
			return true, strings.TrimSpace(rest) != ""
		}
		return false, false
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					for _, cg := range []*ast.CommentGroup{d.Doc, ts.Doc, ts.Comment} {
						if found, _ := hasMarker(cg, markerComponent); found {
							if tn, ok := info.Defs[ts.Name].(*types.TypeName); ok {
								m.confined[tn] = true
							}
						}
					}
				}
			case *ast.FuncDecl:
				if found, reasoned := hasMarker(d.Doc, markerSync); found {
					if !reasoned {
						m.Malformed = append(m.Malformed, Malformed{
							Pos:     fset.Position(d.Pos()),
							Message: "//hierflow:sync without a reason exempts nothing: say why cross-component stores are safe here",
						})
						continue
					}
					if fn, ok := info.Defs[d.Name].(*types.Func); ok {
						m.syncFns[fn] = true
					}
				}
			}
		}
		// serial markers cover their own line and the line below, so both
		// trailing and preceding placement work (same contract as
		// //lint:ignore).
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, markerSerial)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				pos := fset.Position(c.Pos())
				if strings.TrimSpace(rest) == "" {
					m.Malformed = append(m.Malformed, Malformed{
						Pos:     pos,
						Message: "//hierflow:serial without a reason exempts nothing: say why the goroutine is serialized with its spawner",
					})
					continue
				}
				m.serialGo[lineKey{pos.Filename, pos.Line}] = true
				m.serialGo[lineKey{pos.Filename, pos.Line + 1}] = true
			}
		}
	}
	return m
}

// SerialGo reports whether the go statement at pos is marked
// //hierflow:serial (spawner-serialized; not a concurrency context).
func (m Markers) SerialGo(pos token.Position) bool {
	return m.serialGo[lineKey{pos.Filename, pos.Line}]
}

// IsConfined reports whether t (or its pointee) is a confinement domain:
// marked //hierflow:component here, or exported as such by a dependency.
func (in *Info) IsConfined(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	if in.Markers.confined[tn] {
		return true
	}
	if tn.Pkg() == nil {
		return false
	}
	id := tn.Pkg().Path() + "." + tn.Name()
	return in.Imported != nil && in.Imported.ConfinedTypes[id]
}

// SyncAPI reports whether fn is a designated cross-component sync API:
// marked //hierflow:sync here, or exported as such by a dependency.
func (in *Info) SyncAPI(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if in.Markers.syncFns[fn] {
		return true
	}
	return in.FactFor(fn).SyncAPI
}
