// Package clean is the hierlint golden fixture that must produce zero
// diagnostics under every analyzer: hygienic request lifecycles, checked
// errors, seeded randomness, sorted map output, and one deliberately
// suppressed violation exercising the //lint:ignore directive.
package clean

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"hierknem/internal/buffer"
	"hierknem/internal/des"
	"hierknem/internal/mpi"
)

// exchange is a fully hygienic ping-pong: post both, wait both.
func exchange(p *mpi.Proc, c *mpi.Comm, sb, rb *buffer.Buffer) {
	r := p.Irecv(c, rb, 1, 0)
	s := p.Isend(c, sb, 1, 0)
	p.Wait(r)
	p.Wait(s)
}

// run propagates the engine's error.
func run(eng *des.Engine) error {
	return eng.Run()
}

// seededDraw threads an explicit seed into a private generator.
func seededDraw(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// printSorted emits map contents in sorted-key order.
func printSorted(m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s=%g\n", k, m[k])
	}
}

// hostPause genuinely wants the wall clock (host-side tooling); the
// directive records why and suppresses the determinism finding. Both
// placements are exercised: trailing on the offending line, and on the
// line immediately above it.
func hostPause() {
	time.Sleep(time.Millisecond) //lint:ignore determinism host-side fixture demonstrating trailing suppression
	//lint:ignore determinism preceding-line suppression of the line below
	time.Sleep(time.Microsecond)
}

// hits is host-side tooling state, never reachable from a simulation run;
// the directive records that and suppresses the run-isolation finding.
var hits int //lint:ignore runisolation host-side fixture counter, not simulation state

func recordHit() { hits++ }
