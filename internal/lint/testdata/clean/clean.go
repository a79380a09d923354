// Package clean is the hierlint golden fixture that must produce zero
// diagnostics under every analyzer: checked errors, and deliberately
// suppressed violations exercising the //lint:ignore directive.
package clean

import "hierknem/internal/des"

// run propagates the engine's error.
func run(eng *des.Engine) error {
	return eng.Run()
}

// drain drops the engine's error on purpose; the directives record why and
// suppress the errcheck findings. Both placements are exercised: trailing
// on the offending line, and on the line immediately above it.
func drain(eng *des.Engine) {
	eng.Run() //lint:ignore errcheck fixture demonstrating trailing suppression
	//lint:ignore errcheck preceding-line suppression of the line below
	eng.Run()
}

// hits is host-side tooling state, never reachable from a simulation run;
// the directive records that and suppresses the run-isolation finding.
var hits int //lint:ignore runisolation host-side fixture counter, not simulation state

func recordHit() { hits++ }
