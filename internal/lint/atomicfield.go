package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AtomicFieldAnalyzer proves the third PDES precondition at struct-field
// granularity, extending runisolation (which covers package-level vars):
// a field of a package-local struct that is reachable from more than one
// goroutine-spawning context, with at least one write, must be atomic,
// mutex-guarded, channel-typed, or suppressed with a reasoned
// //lint:ignore.
//
// A context is a syntactic concurrency domain: the plain body of a
// function declaration, or the body of a goroutine — a `go func(){...}`
// literal, or a declared function that some `go` statement spawns. A
// single go statement inside a loop is still one context (the spawned
// workers race with each other only through whatever the body touches,
// which the body's own accesses already witness); the analyzer fires only
// when a goroutine context and at least one other context both reach the
// field and someone writes it.
//
// Escapes:
//   - fields whose type lives in sync or sync/atomic (Mutex, WaitGroup,
//     atomic.Int64, ...) are self-synchronizing;
//   - channel-typed fields synchronize by construction;
//   - fields of a struct that also carries a sync.Mutex/RWMutex are
//     assumed guarded by it (the lock discipline itself is a runtime
//     concern — HIERSAN's department, not lint's);
//   - a `go` statement marked //hierflow:serial <reason> (the spawner
//     provably does not touch what the spawnee touches until it joins
//     it, as in the DES engine's phase workers) does not open a context.
var AtomicFieldAnalyzer = &Analyzer{
	Name: "atomicfield",
	Doc:  "forbid non-atomic, unguarded struct fields written across goroutine-spawning contexts",
	Applies: func(pkgPath string) bool {
		if strings.HasSuffix(pkgPath, "internal/lint") {
			// The analysis framework runs on the host and analyzes ASTs
			// concurrently under its own discipline; it is not simulation
			// state.
			return false
		}
		return internalOnly(pkgPath)
	},
	Run: runAtomicField,
}

// afAccess accumulates one field's observed accesses.
type afAccess struct {
	obj      *types.Var
	contexts map[int]bool // context ids that touch the field
	goCtx    bool         // at least one context is a goroutine body
	written  bool
	firstPos token.Pos
}

func runAtomicField(pass *Pass) {
	info := pass.Info()

	// Pass 1: which declared functions are spawned by an (unmarked) go
	// statement, and which go-literal bodies open goroutine contexts.
	spawned := map[types.Object]bool{} // declared funcs run as goroutines
	goLits := map[*ast.FuncLit]bool{}  // literals spawned by go statements
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if pass.Flow.Markers.SerialGo(pass.Fset().Position(g.Pos())) {
				return true // spawner-serialized: same context
			}
			switch fn := ast.Unparen(g.Call.Fun).(type) {
			case *ast.FuncLit:
				goLits[fn] = true
			case *ast.Ident:
				if o := info.ObjectOf(fn); o != nil {
					spawned[o] = true
				}
			case *ast.SelectorExpr:
				if o := info.ObjectOf(fn.Sel); o != nil {
					spawned[o] = true
				}
			}
			return true
		})
	}

	// Pass 2: record field accesses per context. Context ids: one per
	// function declaration body, one per spawned go literal.
	fields := map[*types.Var]*afAccess{}
	nextCtx := 0
	for _, f := range pass.Files() {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			declCtx := nextCtx
			nextCtx++
			declIsGo := false
			if o := info.Defs[fd.Name]; o != nil && spawned[o] {
				declIsGo = true
			}
			var walk func(n ast.Node, ctx int, ctxIsGo bool)
			walk = func(n ast.Node, ctx int, ctxIsGo bool) {
				ast.Inspect(n, func(m ast.Node) bool {
					if lit, ok := m.(*ast.FuncLit); ok && goLits[lit] {
						litCtx := nextCtx
						nextCtx++
						walk(lit.Body, litCtx, true)
						return false
					}
					sel, ok := m.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					s, ok := info.Selections[sel]
					if !ok || s.Kind() != types.FieldVal {
						return true
					}
					v, ok := s.Obj().(*types.Var)
					if !ok || v.Pkg() != pass.Types() {
						return true
					}
					a := fields[v]
					if a == nil {
						a = &afAccess{obj: v, contexts: map[int]bool{}, firstPos: v.Pos()}
						fields[v] = a
					}
					a.contexts[ctx] = true
					a.goCtx = a.goCtx || ctxIsGo
					return true
				})
			}
			walk(fd.Body, declCtx, declIsGo)
		}
	}

	// Pass 3: mark writes (independent of context — one writer anywhere is
	// enough once two contexts share the field).
	for _, f := range pass.Files() {
		markWrite := func(e ast.Expr) {
			for {
				switch x := ast.Unparen(e).(type) {
				case *ast.IndexExpr:
					e = x.X
					continue
				case *ast.SliceExpr:
					e = x.X
					continue
				case *ast.StarExpr:
					e = x.X
					continue
				}
				break
			}
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return
			}
			s, ok := info.Selections[sel]
			if !ok || s.Kind() != types.FieldVal {
				return
			}
			if v, ok := s.Obj().(*types.Var); ok {
				if a := fields[v]; a != nil {
					a.written = true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markWrite(lhs)
				}
			case *ast.IncDecStmt:
				markWrite(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					markWrite(n.X) // address escape: assume it will be written
				}
			}
			return true
		})
	}

	var flagged []*afAccess
	for _, a := range fields {
		if len(a.contexts) >= 2 && a.goCtx && a.written && !afExempt(a.obj) {
			flagged = append(flagged, a)
		}
	}
	sort.Slice(flagged, func(i, j int) bool { return flagged[i].firstPos < flagged[j].firstPos })
	for _, a := range flagged {
		owner := ""
		if named := afOwner(pass.Types(), a.obj); named != "" {
			owner = named + "."
		}
		pass.Reportf(a.firstPos,
			"field %s%s is written and reachable from %d goroutine-spawning contexts without atomic, mutex, or channel protection",
			owner, a.obj.Name(), len(a.contexts))
	}
}

// afExempt reports whether the field is self-synchronizing (sync /
// sync/atomic typed, channel typed) or lives in a struct that carries a
// mutex.
func afExempt(v *types.Var) bool {
	t := v.Type()
	if isSyncType(t) {
		return true
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	// Mutex-carrying struct: find the named type owning this field and
	// look for a sync.Mutex/RWMutex sibling.
	if st := afStruct(v); st != nil {
		for i := 0; i < st.NumFields(); i++ {
			ft := st.Field(i).Type()
			if p, ok := ft.(*types.Pointer); ok {
				ft = p.Elem()
			}
			if n, ok := ft.(*types.Named); ok && n.Obj().Pkg() != nil &&
				n.Obj().Pkg().Path() == "sync" &&
				(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex") {
				return true
			}
		}
	}
	return false
}

// isSyncType reports whether t's named type lives in sync or sync/atomic.
func isSyncType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	path := n.Obj().Pkg().Path()
	return path == "sync" || path == "sync/atomic"
}

// afStruct returns the struct type the field belongs to, by scanning the
// package scope's named struct types (types.Var has no owner pointer).
func afStruct(v *types.Var) *types.Struct {
	if v.Pkg() == nil {
		return nil
	}
	scope := v.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return st
			}
		}
	}
	return nil
}

// afOwner returns the named type owning the field, for the message.
func afOwner(pkg *types.Package, v *types.Var) string {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return tn.Name()
			}
		}
	}
	return ""
}
