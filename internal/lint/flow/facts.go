package flow

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Fact is one function's exported summary: what the analyzers need to know
// about a call without seeing its body. Facts are computed per package to
// a fixed point over the in-package call graph, seeded from imported facts
// and the base table below, then persisted by the driver so dependents see
// through cross-package calls.
type Fact struct {
	// Yields: calling this function can suspend the calling process at a
	// virtual-time yield point (des Sleep/Park/Await, transitively).
	Yields bool `json:"yields,omitempty"`
	// NowResults: result indices whose value derives from virtual now.
	NowResults []int `json:"nowResults,omitempty"`
	// TimeSinkParams: parameter indices that flow into a schedule/timer
	// time argument (des At/After/Sleep, transitively).
	TimeSinkParams []int `json:"timeSinkParams,omitempty"`
	// CrossStores: (src, dst) parameter index pairs (receiver = -1) where
	// the value of src is stored into state reachable from dst.
	CrossStores [][2]int `json:"crossStores,omitempty"`
	// SyncAPI: designated cross-component sync API (//hierflow:sync).
	SyncAPI bool `json:"syncAPI,omitempty"`
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (f Fact) empty() bool {
	return !f.Yields && !f.SyncAPI &&
		len(f.NowResults) == 0 && len(f.TimeSinkParams) == 0 && len(f.CrossStores) == 0
}

func (f Fact) equal(g Fact) bool {
	if f.Yields != g.Yields || f.SyncAPI != g.SyncAPI ||
		!intsEqual(f.NowResults, g.NowResults) ||
		!intsEqual(f.TimeSinkParams, g.TimeSinkParams) ||
		len(f.CrossStores) != len(g.CrossStores) {
		return false
	}
	for i := range f.CrossStores {
		if f.CrossStores[i] != g.CrossStores[i] {
			return false
		}
	}
	return true
}

// FactSet is the serializable fact table of one package (or the merged
// table of a package's dependencies). Function keys are types.Func
// FullName strings — e.g. "(*hierknem/internal/des.Proc).Sleep" — which
// are stable across loads; confined types are "pkgpath.TypeName".
type FactSet struct {
	Funcs         map[string]Fact `json:"funcs,omitempty"`
	ConfinedTypes map[string]bool `json:"confinedTypes,omitempty"`
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{Funcs: map[string]Fact{}, ConfinedTypes: map[string]bool{}}
}

// Merge adds other's entries into fs (other wins on conflicts).
func (fs *FactSet) Merge(other *FactSet) {
	if other == nil {
		return
	}
	for k, v := range other.Funcs {
		fs.Funcs[k] = v
	}
	for k, v := range other.ConfinedTypes {
		fs.ConfinedTypes[k] = v
	}
}

// Hash returns a content hash of the fact set's canonical JSON encoding.
// Go's JSON encoder emits map keys sorted, and every slice in a Fact is
// kept sorted by construction, so the hash is deterministic. The driver
// keys dependents' cache entries on this: a source change that leaves a
// package's facts identical does not invalidate its dependents (early
// cutoff).
func (fs *FactSet) Hash() string {
	b, err := json.Marshal(fs)
	if err != nil { // map[string]… of plain structs cannot fail to encode
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// baseFacts axiomatizes the DES engine's primitives: the points where
// virtual time is read, where a process yields, and where a time argument
// is consumed. Everything else is derived from these by propagation.
//
//lint:ignore runisolation immutable axiom table: initialized here, only ever read
var baseFacts = map[string]Fact{
	"(*hierknem/internal/des.Proc).Now":        {NowResults: []int{0}},
	"(*hierknem/internal/des.Engine).Now":      {NowResults: []int{0}},
	"(*hierknem/internal/des.Proc).Sleep":      {Yields: true, TimeSinkParams: []int{0}},
	"(*hierknem/internal/des.Proc).Park":       {Yields: true},
	"hierknem/internal/des.Await":              {Yields: true},
	"hierknem/internal/des.AwaitAll":           {Yields: true},
	"hierknem/internal/des.AwaitEnd":           {Yields: true},
	"(*hierknem/internal/des.Engine).At":       {TimeSinkParams: []int{0}},
	"(*hierknem/internal/des.Engine).After":    {TimeSinkParams: []int{0}},
	"(*hierknem/internal/des.Engine).schedule": {TimeSinkParams: []int{0}},
}

// FuncID returns the stable cross-package identity of fn.
func FuncID(fn *types.Func) string { return fn.FullName() }

// FactFor returns the merged fact for fn: this package's computed facts,
// then imported facts, then the base table.
func (in *Info) FactFor(fn *types.Func) Fact {
	if fn == nil {
		return Fact{}
	}
	id := FuncID(fn)
	f, found := Fact{}, false
	if in.Own != nil {
		f, found = in.Own.Funcs[id]
	}
	if !found && in.Imported != nil {
		f, found = in.Imported.Funcs[id]
	}
	if !found {
		f = baseFacts[id]
	}
	return f
}

// computeFacts iterates the per-function summaries to a fixed point. The
// lattice is finite (flags and index sets bounded by signature size) and
// every transfer is monotone, so iteration terminates; packages are small
// enough that the simple whole-package sweep is fast.
func computeFacts(in *Info) {
	own := NewFactSet()
	for tn := range in.Markers.confined {
		if tn.Pkg() != nil {
			own.ConfinedTypes[tn.Pkg().Path()+"."+tn.Name()] = true
		}
	}
	for fn := range in.Markers.syncFns {
		f := own.Funcs[FuncID(fn)]
		f.SyncAPI = true
		own.Funcs[FuncID(fn)] = f
	}
	in.Own = own

	for round := 0; round <= len(in.Funcs)+1; round++ {
		changed := false
		for _, fi := range in.Funcs {
			id := FuncID(fi.Obj)
			prev := own.Funcs[id]
			next := fi.computeFact()
			next.SyncAPI = prev.SyncAPI
			if !next.equal(prev) {
				if next.empty() {
					delete(own.Funcs, id)
				} else {
					own.Funcs[id] = next
				}
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// NowSeed reports whether e is a direct virtual-now read: a call whose
// callee's fact says result 0 derives from now.
func (in *Info) NowSeed(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	fact := in.FactFor(CalleeFunc(in.TypesInfo, call))
	for _, i := range fact.NowResults {
		if i == 0 {
			return true
		}
	}
	return false
}

// SinkArgs returns the (argIndex, expr) pairs of c's time-sink arguments
// according to the callee's fact, or nil.
func (in *Info) SinkArgs(c Call) []ast.Expr {
	if c.Callee == nil {
		return nil
	}
	fact := in.FactFor(c.Callee)
	var out []ast.Expr
	for _, idx := range fact.TimeSinkParams {
		if idx >= 0 && idx < len(c.Expr.Args) {
			out = append(out, c.Expr.Args[idx])
		}
	}
	return out
}

// YieldSites returns the positions of calls in fi that can yield, sorted.
func (fi *FuncInfo) YieldSites() []token.Pos {
	var out []token.Pos
	for _, c := range fi.Calls {
		if c.Callee != nil && fi.info.FactFor(c.Callee).Yields {
			out = append(out, c.Expr.Pos())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// computeFact derives one function's summary from its body under the
// current fact environment.
func (fi *FuncInfo) computeFact() Fact {
	var f Fact
	in := fi.info

	// Yields: any call to a yielding callee.
	for _, c := range fi.Calls {
		if c.Callee != nil && in.FactFor(c.Callee).Yields {
			f.Yields = true
			break
		}
	}

	// TimeSinkParams: a parameter that flows into a sink's time argument.
	sinkSeen := map[int]bool{}
	for _, c := range fi.Calls {
		for _, arg := range in.SinkArgs(c) {
			for v, idx := range fi.params {
				if idx < 0 || sinkSeen[idx] {
					continue
				}
				if _, basic := v.Type().Underlying().(*types.Basic); !basic {
					continue
				}
				seed := func(e ast.Expr) bool {
					id, ok := e.(*ast.Ident)
					return ok && in.TypesInfo.ObjectOf(id) == v
				}
				if ok, _ := fi.Trace(arg, seed); ok {
					sinkSeen[idx] = true
				}
			}
		}
	}
	for idx := range sinkSeen {
		f.TimeSinkParams = append(f.TimeSinkParams, idx)
	}
	sort.Ints(f.TimeSinkParams)

	// NowResults: a result position whose returned value derives from now.
	nResults := 0
	if sig, ok := fi.Obj.Type().(*types.Signature); ok {
		nResults = sig.Results().Len()
	}
	if nResults > 0 {
		nowSeen := map[int]bool{}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // a literal's returns are not the function's
			}
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || len(ret.Results) == 0 {
				return true
			}
			for i, res := range ret.Results {
				if i >= nResults || nowSeen[i] {
					continue
				}
				if ok, _ := fi.Trace(res, in.NowSeed); ok {
					nowSeen[i] = true
				}
			}
			return true
		})
		for i := range nowSeen {
			f.NowResults = append(f.NowResults, i)
		}
		sort.Ints(f.NowResults)
	}

	// CrossStores: a store site whose dst and src root at two distinct
	// parameters couples the caller's arguments.
	pairSeen := map[[2]int]bool{}
	for _, site := range fi.ParamStores() {
		for d := range site.Dst {
			dIdx, dOK := fi.ParamIndex(d)
			if !dOK {
				continue
			}
			for s := range site.Src {
				sIdx, sOK := fi.ParamIndex(s)
				if !sOK || s == d {
					continue
				}
				pairSeen[[2]int{sIdx, dIdx}] = true
			}
		}
	}
	for p := range pairSeen {
		f.CrossStores = append(f.CrossStores, p)
	}
	sort.Slice(f.CrossStores, func(i, j int) bool {
		if f.CrossStores[i][0] != f.CrossStores[j][0] {
			return f.CrossStores[i][0] < f.CrossStores[j][0]
		}
		return f.CrossStores[i][1] < f.CrossStores[j][1]
	})

	return f
}
