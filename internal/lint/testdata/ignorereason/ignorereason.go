// Package ignorereason exercises hierlint's directive enforcement: a
// //lint:ignore without a reason, without an analyzer name, or naming an
// analyzer that is not registered suppresses nothing and is itself
// reported, while a well-formed directive still silences its line. Checked
// by a dedicated test, not the golden harness.
package ignorereason

import "hierknem/internal/des"

// reasonless: the directive names the analyzer but gives no reason, so the
// errcheck finding on this line survives AND the directive is reported.
func reasonless(eng *des.Engine) {
	eng.Run() //lint:ignore errcheck
}

// bare: no analyzer, no reason.
func bare(eng *des.Engine) {
	//lint:ignore
	eng.Run()
}

// retired: vtmono was an analyzer once; a directive naming it is stale.
func retired(eng *des.Engine) {
	eng.Run() //lint:ignore vtmono the analyzer this names is gone
}

// excused: a well-formed suppression still works.
func excused(eng *des.Engine) {
	eng.Run() //lint:ignore errcheck fixture demonstrates a well-formed suppression
}
