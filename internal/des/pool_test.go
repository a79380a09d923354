package des

import (
	"fmt"
	"testing"
)

// The tests in this file pin the engine's hot-path machinery: the event
// free list and its generation guard, and the dispatch order of events at
// the current timestamp.

func TestEventPoolRecyclesEvents(t *testing.T) {
	e := New()
	const n = 100
	for i := 0; i < n; i++ {
		e.After(float64(i+1), func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after run, want 0", e.Pending())
	}
	if e.PoolSize() == 0 {
		t.Fatal("PoolSize() = 0 after dispatching events; free list never fed")
	}
	// A second wave must reuse pooled records rather than grow the pool.
	grown := e.PoolSize()
	e.After(1, func() { e.At(e.Now(), func() {}) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.PoolSize() > grown {
		t.Fatalf("PoolSize() grew %d -> %d across an identical wave", grown, e.PoolSize())
	}
}

func TestCancelReturnsEventToPool(t *testing.T) {
	e := New()
	tm := e.After(5, func() { t.Fatal("cancelled timer fired") })
	before := e.PoolSize()
	tm.Cancel()
	if e.PoolSize() != before+1 {
		t.Fatalf("PoolSize() = %d after cancel, want %d", e.PoolSize(), before+1)
	}
	if !tm.Stopped() {
		t.Fatal("timer not Stopped() after cancel")
	}
	e.After(1, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestNowBucketDispatchOrder checks the ordering contract for events at the
// current timestamp: an event scheduled At(now) from inside a callback joins
// the FIFO zero-delay lane, while events already in the heap for that same
// timestamp carry older sequence numbers — so the heap drains first and
// overall (time, seq) order is preserved exactly.
func TestNowBucketDispatchOrder(t *testing.T) {
	e := New()
	var got []string
	rec := func(s string) func() {
		return func() { got = append(got, s) }
	}
	e.At(1, func() {
		got = append(got, "A")
		// Zero-delay lane: same timestamp, scheduled during dispatch.
		e.At(1, func() {
			got = append(got, "C")
			e.At(1, rec("D")) // the lane feeding itself stays FIFO
		})
	})
	e.At(1, rec("B")) // heap resident: older seq than C and D
	e.At(2, rec("E"))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "A B C D E"
	if s := fmt.Sprintf("%s %s %s %s %s", got[0], got[1], got[2], got[3], got[4]); s != want {
		t.Fatalf("dispatch order %q, want %q", s, want)
	}
}

// TestVacatedQueueSlotsAreNil: popping and removing events must nil the
// vacated slice slots so dead events are not pinned by the queue's backing
// array (satellite hygiene fix; this is white-box).
func TestVacatedQueueSlotsAreNil(t *testing.T) {
	e := New()
	timers := make([]Timer, 8)
	for i := range timers {
		timers[i] = e.After(float64(i+1), func() {})
	}
	for _, tm := range timers {
		tm.Cancel()
	}
	full := e.queue[:cap(e.queue)]
	for i := range full {
		if full[i] != nil {
			t.Fatalf("vacated backing slot %d not nilled", i)
		}
	}
}

// TestResetPanicsWithQueuedEvents: a Run that returned leaves no event
// queued, so Reset refuses an engine that still holds one (scheduled and
// never run) instead of dropping it. After the Run that drains it, Reset
// succeeds, and the Timer handles of the fired events cannot cancel the
// records' next lives.
func TestResetPanicsWithQueuedEvents(t *testing.T) {
	e := New()
	fired := 0
	stale := []Timer{
		e.After(1, func() { fired++ }),
		e.After(9, func() { fired++ }),
	}
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		e.Reset()
		return ""
	}()
	if msg != "des: Reset with 2 event(s) queued" {
		t.Fatalf("Reset with two events queued: panic %q", msg)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	if e.Pending() != 0 || e.Now() != 0 || fired != 2 {
		t.Fatalf("after Run and Reset: %d pending, now %g, %d of 2 fired", e.Pending(), e.Now(), fired)
	}
	// Reuse the records, then cancel through the stale handles.
	e.After(1, func() { fired++ })
	e.After(2, func() { fired++ })
	for i := range stale {
		stale[i].Cancel()
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 4 {
		t.Fatalf("%d of 2 new events fired: a stale handle cancelled a reused record", fired-2)
	}
}

// TestScheduleCancelAllocatesNothing: a warm schedule/cancel cycle performs
// zero heap allocations.
func TestScheduleCancelAllocatesNothing(t *testing.T) {
	e := New()
	e.After(1, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tm := e.At(e.Now()+5, func() {})
		tm.Cancel()
	}); n != 0 {
		t.Fatalf("schedule/cancel allocates %v per op, want 0", n)
	}
}
