package lint

import (
	"go/ast"
	"go/types"
)

// DeterminismAnalyzer enforces the simulator's foundational invariant:
// inside internal/, time is virtual and randomness is seeded. The DES
// engine (internal/des) is bit-for-bit deterministic precisely because no
// wall-clock reading, host sleep, global RNG draw, or map-iteration-ordered
// output can influence a run. Any of those would make the paper's
// experiments unreproducible from one invocation to the next.
//
// Three rules:
//
//  1. No wall-clock time: time.Now, time.Since, time.Until, time.Sleep,
//     time.Tick, time.After, time.AfterFunc, time.NewTimer, time.NewTicker
//     are forbidden. Virtual time comes from des.Engine / des.Proc.
//
//  2. No unseeded randomness: package-level math/rand (and math/rand/v2)
//     functions draw from a shared, unseeded global source. Construct an
//     explicit generator (rand.New(rand.NewSource(seed))) and thread the
//     seed from configuration.
//
//  3. No output ordered by map iteration: fmt.Print/Fprint-family calls
//     inside a `for range` over a map emit in a different order every run.
//     Collect keys, sort, then print.
var DeterminismAnalyzer = &Analyzer{
	Name:    "determinism",
	Doc:     "forbid wall-clock time, unseeded randomness, and map-ordered output in internal/",
	Applies: internalOnly,
	Run:     runDeterminism,
}

// wallClockFuncs are the time package entry points that read or wait on the
// host clock. Pure conversions and constants (time.Duration, time.Unix) are
// allowed: they do not observe the clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// seededRandCtors are the math/rand[/v2] constructors that build an
// explicitly seeded generator — the sanctioned path to randomness.
var seededRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// printFuncs are the fmt functions whose emission order is observable.
// Sprint-family is deliberately excluded: a string built inside the loop is
// frequently sorted or keyed afterwards.
var printFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func runDeterminism(pass *Pass) {
	info := pass.Info()
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			continue
		}
		switch pkgPathOf(fn) {
		case "time":
			if wallClockFuncs[fn.Name()] {
				pass.Reportf(id.Pos(), "time.%s depends on the host clock; use virtual time from the DES engine (des.Proc.Now / des.Proc.Sleep)", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if !seededRandCtors[fn.Name()] {
				pass.Reportf(id.Pos(), "rand.%s draws from the global unseeded source; use rand.New(rand.NewSource(seed)) with a configured seed", fn.Name())
			}
		}
	}

	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := info.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			ast.Inspect(rng.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				obj := calleeObj(info, call)
				if fn, ok := obj.(*types.Func); ok && pkgPathOf(fn) == "fmt" && printFuncs[fn.Name()] {
					pass.Reportf(call.Pos(), "fmt.%s inside range over map emits in nondeterministic order; sort the keys first", fn.Name())
				}
				return true
			})
			return true
		})
	}
}
