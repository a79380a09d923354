package des

// Seeded-fault fixtures for the hiersan pool-provenance checker on the
// engine's event free list: planted double releases must fire, a MaxTime
// abort must leave the pool reusable (Reset routes leftovers through
// release, never raw appends), and the disabled sanitizer must add zero
// allocations to the warm schedule/cancel hot path.

import (
	"strings"
	"testing"

	"hierknem/internal/san"
)

// collectSan attaches a sanitizer whose violations are collected instead of
// panicking.
func collectSan(e *Engine) (*san.Sanitizer, *[]string) {
	var got []string
	s := san.New(e.Now)
	s.SetOnViolation(func(msg string) { got = append(got, msg) })
	e.SetSanitizer(s)
	return s, &got
}

func TestSanitizerCatchesEventDoubleRelease(t *testing.T) {
	e := New()
	_, got := collectSan(e)
	ev := e.alloc(0)
	e.release(ev)
	e.release(ev) // planted fault
	if len(*got) != 1 || !strings.Contains((*got)[0], "double release of des.event") {
		t.Fatalf("violations = %q, want exactly one double release of des.event", *got)
	}
}

// TestMaxTimeAbortDrainReleasesUnderSanitizer pins the drain-after-abort
// path: after a horizon abort, Reset must route every leftover event through
// release. If it fed the pool with raw appends instead, the next wave's
// allocations would trip the sanitizer's alloc-of-live check.
func TestMaxTimeAbortDrainReleasesUnderSanitizer(t *testing.T) {
	e := New()
	_, got := collectSan(e)
	e.MaxTime = 2
	e.After(1, func() {})
	e.After(5, func() { t.Error("event beyond the horizon fired") })
	e.After(9, func() { t.Error("event beyond the horizon fired") })
	if err := e.Run(); err == nil {
		t.Fatal("expected a horizon error from Run")
	}
	if e.Pending() == 0 {
		t.Fatal("expected leftover events after the abort")
	}
	e.Reset()
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after Reset, want 0", e.Pending())
	}
	// Reuse the drained records: provenance must show them released.
	e.After(1, func() {})
	e.After(2, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 0 {
		t.Fatalf("violations = %q, want none: drain must release leftovers", *got)
	}
}

// TestDisabledSanitizerAddsNoAllocs is the satellite guard for the
// off-by-default contract: with no sanitizer attached, a warm
// schedule/cancel cycle performs zero heap allocations.
func TestDisabledSanitizerAddsNoAllocs(t *testing.T) {
	e := New()
	e.After(1, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tm := e.At(e.Now()+5, func() {})
		tm.Cancel()
	}); n != 0 {
		t.Fatalf("disabled-sanitizer hot path allocates %v per op, want 0", n)
	}
}
