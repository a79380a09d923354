package san

import (
	"strings"
	"testing"
)

// harness wires a sanitizer to a manual clock and a violation collector.
type harness struct {
	s    *Sanitizer
	t    float64
	msgs []string
}

func newHarness() *harness {
	h := &harness{}
	h.s = New(func() float64 { return h.t })
	h.s.SetOnViolation(func(msg string) { h.msgs = append(h.msgs, msg) })
	return h
}

func (h *harness) expect(t *testing.T, n int, substrs ...string) {
	t.Helper()
	if len(h.msgs) != n {
		t.Fatalf("violations = %d, want %d: %q", len(h.msgs), n, h.msgs)
	}
	for _, sub := range substrs {
		found := false
		for _, m := range h.msgs {
			if strings.Contains(m, sub) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no violation mentions %q: %q", sub, h.msgs)
		}
	}
}

func TestConflictInFlightOverlap(t *testing.T) {
	h := newHarness()
	h.s.BeginAccess(0, "rank0", 7, 0, 100, true)
	h.s.BeginAccess(1, "rank1", 7, 50, 100, false)
	h.expect(t, 1, "conflicting buffer access", "rank0", "rank1", "buf 7", "still in flight")
}

func TestNoConflictDisjointOrReadOnlyOrSameRank(t *testing.T) {
	h := newHarness()
	h.s.BeginAccess(0, "rank0", 7, 0, 100, true)
	h.s.BeginAccess(1, "rank1", 7, 100, 50, true) // adjacent, not overlapping
	h.s.BeginAccess(2, "rank2", 9, 0, 100, true)  // other allocation
	h.s.BeginAccess(0, "rank0", 7, 0, 100, true)  // same rank
	h.s.BeginAccess(3, "rank3", 7, 0, 0, true)    // zero length
	a := h.s.BeginAccess(4, "rank4", 11, 0, 64, false)
	b := h.s.BeginAccess(5, "rank5", 11, 0, 64, false) // read/read
	h.s.EndAccess(a)
	h.s.EndAccess(b)
	h.expect(t, 0)
}

func TestConflictClosedSameInstantWithoutEdge(t *testing.T) {
	h := newHarness()
	hw := h.s.BeginAccess(0, "rank0", 7, 0, 100, true)
	h.t = 1
	h.s.EndAccess(hw)
	h.s.BeginAccess(1, "rank1", 7, 0, 100, false)
	h.expect(t, 1, "closed this instant")
}

func TestSyncEdgeExcusesSameInstant(t *testing.T) {
	h := newHarness()
	hw := h.s.BeginAccess(0, "rank0", 7, 0, 100, true)
	h.t = 1
	h.s.EndAccess(hw)
	h.s.SyncEdge(0, 1)
	h.s.BeginAccess(1, "rank1", 7, 0, 100, false)
	h.expect(t, 0)
}

func TestSyncEdgeIsTransitiveWithinInstant(t *testing.T) {
	h := newHarness()
	hw := h.s.BeginAccess(0, "rank0", 7, 0, 100, true)
	h.t = 1
	h.s.EndAccess(hw)
	h.s.SyncEdge(0, 1) // parent -> leader
	h.s.SyncEdge(1, 2) // leader -> non-leader
	h.s.BeginAccess(2, "rank2", 7, 0, 100, false)
	h.expect(t, 0)
}

func TestSyncEdgeExpiresWhenClockAdvances(t *testing.T) {
	h := newHarness()
	h.s.SyncEdge(0, 1)
	h.t = 1
	hw := h.s.BeginAccess(0, "rank0", 7, 0, 100, true)
	h.s.EndAccess(hw)
	h.s.BeginAccess(1, "rank1", 7, 0, 100, false)
	h.expect(t, 1, "closed this instant")
}

func TestClosedWindowInThePastIsExcused(t *testing.T) {
	h := newHarness()
	hw := h.s.BeginAccess(0, "rank0", 7, 0, 100, true)
	h.s.EndAccess(hw)
	h.t = 1 // strictly later: the clock itself orders the accesses
	h.s.BeginAccess(1, "rank1", 7, 0, 100, true)
	h.expect(t, 0)
}

func TestWindowSlotsRecycle(t *testing.T) {
	h := newHarness()
	for i := 0; i < 100; i++ {
		w := h.s.BeginAccess(0, "rank0", 7, 0, 100, true)
		h.s.EndAccess(w)
		h.t++
		h.s.advance()
	}
	if got := len(h.s.windows); got != 1 {
		t.Fatalf("window slots = %d after serial reuse, want 1", got)
	}
	h.expect(t, 0)
}

func TestResetClearsState(t *testing.T) {
	h := newHarness()
	h.s.BeginAccess(0, "rank0", 7, 0, 100, true)
	h.s.Reset()
	// Post-reset the old in-flight window is gone.
	h.s.BeginAccess(1, "rank1", 7, 0, 100, true)
	h.expect(t, 0)
}

func TestDefaultHandlerPanics(t *testing.T) {
	s := New(func() float64 { return 0 })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic from default violation handler")
		}
		if !strings.Contains(r.(string), "conflicting buffer access") {
			t.Fatalf("panic = %v, want a conflict message", r)
		}
	}()
	s.BeginAccess(0, "rank0", 7, 0, 100, true)
	s.BeginAccess(1, "rank1", 7, 0, 100, true)
}

func TestEnvEnabled(t *testing.T) {
	t.Setenv("HIERSAN", "")
	if EnvEnabled() {
		t.Fatal("EnvEnabled with empty HIERSAN")
	}
	t.Setenv("HIERSAN", "0")
	if EnvEnabled() {
		t.Fatal("EnvEnabled with HIERSAN=0")
	}
	t.Setenv("HIERSAN", "1")
	if !EnvEnabled() {
		t.Fatal("!EnvEnabled with HIERSAN=1")
	}
}

func TestViolationsCounter(t *testing.T) {
	h := newHarness()
	h.s.BeginAccess(0, "rank0", 7, 0, 100, true)
	h.s.BeginAccess(1, "rank1", 7, 0, 100, false) // conflicts with rank0
	h.s.BeginAccess(2, "rank2", 7, 50, 10, true)  // conflicts with both
	if h.s.Violations() != 3 {
		t.Fatalf("Violations() = %d, want 3", h.s.Violations())
	}
}
