package lint

// The incremental, parallel hierlint driver. Load (load.go) is the simple
// serial path; Analyze is what cmd/hierlint runs:
//
//   - Packages ("units": one source directory with its test variants) are
//     scheduled over a bounded worker pool in dependency order, so a
//     package always sees its in-module dependencies' hierflow facts.
//
//   - Each unit's result (diagnostics + facts) is cached on disk, keyed by
//     a content hash of everything that can change it: the tool and Go
//     versions, the analyzer selection, every source file's bytes, and the
//     *fact* hashes of the unit's in-module dependencies. Keying on
//     dependency facts instead of dependency sources is the early cutoff:
//     editing a function body in des without changing its summary does not
//     re-analyze the packages that import des.
//
//   - On a fully warm cache the driver never type-checks, never builds
//     export data, and runs zero analyzers — it lists the tree, hashes
//     files, and replays cached diagnostics.
//
// Output is deterministic regardless of worker interleaving: per-unit
// results are merged in listing order and globally re-sorted, so parallel
// runs are byte-identical to -parallel=1 runs.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"hierknem/internal/lint/flow"
)

// cacheSchema versions the cache entry layout; bump on incompatible change.
// 3: FactSet carries only the vtmono/confine/atomicfield summaries.
const cacheSchema = 3

// Options configures one Analyze run.
type Options struct {
	Dir      string   // module directory to run in
	Patterns []string // go list patterns; default ./...

	Analyzers []*Analyzer // default: the full registry
	CacheDir  string      // "" disables the result cache
	Workers   int         // <=0: GOMAXPROCS, capped at 8
}

// UnitStat is one package's cost line for the -json timing output.
type UnitStat struct {
	Pkg       string           `json:"package"`
	CacheHit  bool             `json:"cacheHit"`
	Millis    float64          `json:"millis"`
	Analyzers []AnalyzerTiming `json:"analyzers,omitempty"`
}

// Stats summarizes one Analyze run.
type Stats struct {
	Units     int        `json:"units"`
	CacheHits int        `json:"cacheHits"`
	Analyzed  int        `json:"analyzed"`
	PerUnit   []UnitStat `json:"perUnit,omitempty"`
}

// cacheEntry is the persisted result of one unit under one cache key.
type cacheEntry struct {
	Schema   int           `json:"schema"`
	Diags    []Diagnostic  `json:"diags,omitempty"`
	Facts    *flow.FactSet `json:"facts,omitempty"`
	FactHash string        `json:"factHash"`
}

// unitState tracks one unit through the scheduler.
type unitState struct {
	meta *unitMeta
	deps []*unitState // in-module deps that are part of this run

	waiting int // unresolved deps; scheduler state, guarded by the run mutex

	// results, written once by the worker that owns the unit
	diags    []Diagnostic
	own      *flow.FactSet // this unit's own facts
	exported *flow.FactSet // own + transitive dep facts, what dependents import
	expHash  string
	stat     UnitStat
	err      error
}

// Analyze runs the analyzers over the matched packages with caching and
// bounded parallelism, returning globally sorted diagnostics.
func Analyze(opts Options) ([]Diagnostic, *Stats, error) {
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	as := opts.Analyzers
	if as == nil {
		as = Analyzers
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 8 {
			workers = 8
		}
	}

	metas, err := listUnits(opts.Dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	mod, err := modulePath(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	if opts.CacheDir != "" {
		if err := os.MkdirAll(opts.CacheDir, 0o755); err != nil {
			return nil, nil, err
		}
	}

	units := make(map[string]*unitState, len(metas))
	order := make([]*unitState, 0, len(metas))
	for _, m := range metas {
		u := &unitState{meta: m}
		units[m.ImportPath] = u
		order = append(order, u)
	}
	for _, u := range units {
		for _, dep := range unitDeps(u.meta) {
			if dep == u.meta.ImportPath {
				continue // xtest importing its own package
			}
			if d, ok := units[dep]; ok {
				u.deps = append(u.deps, d)
			}
		}
		sort.Slice(u.deps, func(i, j int) bool {
			return u.deps[i].meta.ImportPath < u.deps[j].meta.ImportPath
		})
		u.waiting = len(u.deps)
	}

	exp := newExportResolver(opts.Dir, patterns)

	var (
		mu    sync.Mutex
		ready []*unitState
		done  int
		wake  = sync.NewCond(&mu)
	)
	dependents := map[*unitState][]*unitState{}
	for _, u := range order {
		for _, d := range u.deps {
			dependents[d] = append(dependents[d], u)
		}
		if u.waiting == 0 {
			ready = append(ready, u)
		}
	}
	// Base import edges are acyclic by construction (the compiler rejects
	// import cycles); verify anyway so a listing anomaly surfaces as an
	// error instead of a scheduler deadlock.
	if err := checkAcyclic(order, dependents); err != nil {
		return nil, nil, err
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for len(ready) == 0 && done < len(order) {
					wake.Wait()
				}
				if done == len(order) && len(ready) == 0 {
					mu.Unlock()
					return
				}
				u := ready[0]
				ready = ready[1:]
				mu.Unlock()

				analyzeUnit(u, opts.Dir, mod, as, opts.CacheDir, exp)

				mu.Lock()
				done++
				for _, dep := range dependents[u] {
					dep.waiting--
					if dep.waiting == 0 {
						ready = append(ready, dep)
					}
				}
				mu.Unlock()
				wake.Broadcast()
			}
		}()
	}
	wg.Wait()

	stats := &Stats{Units: len(order)}
	var all []Diagnostic
	for _, u := range order {
		if u.err != nil {
			return nil, nil, u.err
		}
		all = append(all, u.diags...)
		stats.PerUnit = append(stats.PerUnit, u.stat)
		if u.stat.CacheHit {
			stats.CacheHits++
		} else {
			stats.Analyzed++
		}
	}
	SortDiagnostics(all)
	return all, stats, nil
}

// unitDeps returns the unit's base-variant imports. Facts flow along base
// import edges only: test variants may import packages that import this one
// back (a legal test-only cycle in Go), so scheduling on test imports would
// deadlock. Test and xtest variants still see the base table, the imported
// facts of base deps, and their own base package's facts (merged in by
// analyzeUnit), which is what the PDES analyzers need in practice.
func unitDeps(m *unitMeta) []string {
	out := append([]string(nil), m.Imports...)
	sort.Strings(out)
	return out
}

// analyzeUnit resolves one unit: cache hit or full load + analyze.
// Dependencies are complete when this runs (scheduler invariant).
func analyzeUnit(u *unitState, dir, mod string, as []*Analyzer, cacheDir string, exp *exportResolver) {
	start := time.Now() //lint:ignore determinism wall-clock timing of the lint tooling itself, not simulation state
	u.stat.Pkg = u.meta.ImportPath

	defer func() {
		u.stat.Millis = float64(time.Since(start)) / float64(time.Millisecond) //lint:ignore determinism wall-clock timing of the lint tooling itself, not simulation state
		// exported facts: own + everything the dependencies export.
		u.exported = flow.NewFactSet()
		for _, d := range u.deps {
			u.exported.Merge(d.exported)
		}
		u.exported.Merge(u.own)
		u.expHash = u.exported.Hash()
	}()

	key, keyErr := unitKey(u, dir, mod, as)
	if cacheDir != "" && keyErr == nil {
		if e := readCache(cacheDir, key); e != nil {
			u.diags = e.Diags
			u.own = e.Facts
			if u.own == nil {
				u.own = flow.NewFactSet()
			}
			u.stat.CacheHit = true
			return
		}
	}

	imported := flow.NewFactSet()
	for _, d := range u.deps {
		imported.Merge(d.exported)
	}

	pkgs, err := loadUnit(u.meta, exp)
	if err != nil {
		u.err = err
		u.own = flow.NewFactSet()
		return
	}
	u.own = flow.NewFactSet()
	for _, pkg := range pkgs {
		diags, fl, timings := RunVariant(pkg, as, imported)
		u.diags = append(u.diags, diags...)
		u.stat.Analyzers = append(u.stat.Analyzers, timings...)
		if pkg.Variant == "" {
			u.own = fl.Own
			// Test variants call into this package: let them see its facts.
			imported.Merge(u.own)
		}
	}
	SortDiagnostics(u.diags)

	if cacheDir != "" && keyErr == nil {
		writeCache(cacheDir, key, &cacheEntry{
			Schema:   cacheSchema,
			Diags:    u.diags,
			Facts:    u.own,
			FactHash: u.own.Hash(),
		})
	}
}

// unitKey hashes everything that can change a unit's result: tool schema,
// Go version, module identity, unit path and directory, the analyzer
// selection (names and docs), every source file's content, and each
// in-module dependency's exported fact hash.
func unitKey(u *unitState, dir, mod string, as []*Analyzer) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "schema %d\ngo %s\nmodule %s\nunit %s\ndir %s\n",
		cacheSchema, runtime.Version(), mod, u.meta.ImportPath, u.meta.Dir)
	for _, a := range as {
		fmt.Fprintf(h, "analyzer %s: %s\n", a.Name, a.Doc)
	}
	for _, group := range []struct {
		label string
		files []string
	}{
		{"go", u.meta.GoFiles},
		{"test", u.meta.TestGoFiles},
		{"xtest", u.meta.XTestGoFiles},
	} {
		for _, name := range group.files {
			b, err := os.ReadFile(filepath.Join(u.meta.Dir, name))
			if err != nil {
				return "", err
			}
			sum := sha256.Sum256(b)
			fmt.Fprintf(h, "%s %s %s\n", group.label, name, hex.EncodeToString(sum[:]))
		}
	}
	for _, d := range u.deps {
		fmt.Fprintf(h, "dep %s %s\n", d.meta.ImportPath, d.expHash)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkAcyclic runs Kahn's algorithm over the unit graph and errors if any
// unit is unreachable (an import cycle).
func checkAcyclic(order []*unitState, dependents map[*unitState][]*unitState) error {
	waiting := make(map[*unitState]int, len(order))
	var queue []*unitState
	for _, u := range order {
		waiting[u] = len(u.deps)
		if len(u.deps) == 0 {
			queue = append(queue, u)
		}
	}
	seen := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		seen++
		for _, d := range dependents[u] {
			waiting[d]--
			if waiting[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if seen != len(order) {
		var stuck []string
		for _, u := range order {
			if waiting[u] > 0 {
				stuck = append(stuck, u.meta.ImportPath)
			}
		}
		return fmt.Errorf("import cycle among packages: %v", stuck)
	}
	return nil
}

func cachePath(cacheDir, key string) string {
	return filepath.Join(cacheDir, key+".json")
}

func readCache(cacheDir, key string) *cacheEntry {
	b, err := os.ReadFile(cachePath(cacheDir, key))
	if err != nil {
		return nil
	}
	var e cacheEntry
	if json.Unmarshal(b, &e) != nil || e.Schema != cacheSchema {
		return nil
	}
	return &e
}

// writeCache persists atomically (rename) so concurrent workers and
// interrupted runs never leave a torn entry. Failures are ignored: the
// cache is an accelerator, not a correctness dependency.
func writeCache(cacheDir, key string, e *cacheEntry) {
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(cacheDir, "tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if os.Rename(name, cachePath(cacheDir, key)) != nil {
		os.Remove(name)
	}
}

// DefaultCacheDir returns the conventional on-disk cache location for a
// module rooted at dir.
func DefaultCacheDir(dir string) string {
	return filepath.Join(dir, ".hierlint-cache")
}
