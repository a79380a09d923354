package des

// Fixtures for the engine's record recycling around hiersan: a MaxTime
// abort must leave the pool reusable (Reset routes leftovers through
// release, never raw appends), and the disabled sanitizer must add zero
// allocations to the warm schedule/cancel hot path.

import "testing"

// TestMaxTimeAbortDrainReleasesLeftovers pins the drain-after-abort path:
// after a horizon abort, Reset must route every leftover event through
// release, whose generation bump disarms the Timer handles still pointing
// at the records. If it fed the pool with raw appends instead, the next
// wave would reuse the records under their old generation, and cancelling
// through a stale handle would cancel a new event.
func TestMaxTimeAbortDrainReleasesLeftovers(t *testing.T) {
	e := New()
	e.MaxTime = 2
	e.After(1, func() {})
	stale := []Timer{
		e.After(5, func() { t.Error("event beyond the horizon fired") }),
		e.After(9, func() { t.Error("event beyond the horizon fired") }),
	}
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
	// Reuse the drained records, then cancel through the stale handles.
	fired := 0
	e.After(1, func() { fired++ })
	e.After(2, func() { fired++ })
	for i := range stale {
		stale[i].Cancel()
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("%d of 2 new events fired: a stale handle cancelled a reused record", fired)
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
