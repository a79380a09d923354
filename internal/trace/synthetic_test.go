package trace

import (
	"testing"

	"hierknem/internal/topology"
)

// Synthetic-timeline tests: instead of measuring a collective, drive the
// fabric with hand-placed rate-capped flows whose activity intervals are
// exact binary fractions, and assert the overlap accounting to the bit.
// Rate caps of 1.0 B/s make every completion time equal to the flow size.

func syntheticMachine(t *testing.T) *topology.Machine {
	t.Helper()
	m, err := topology.Build(topology.Spec{
		Name: "synth", Nodes: 1, SocketsPerNode: 1, CoresPerSocket: 2,
		MemBandwidth: 10e9, CoreCopyBandwidth: 3e9, L3Bandwidth: 6e9,
		L3Size: 12 << 20, ShmLatency: 1e-6,
		NetBandwidth: 1e9, NetLatency: 10e-6, NetFullDuplex: true,
		EagerThreshold: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// at schedules a pathless classed flow: active exactly [when, when+size).
func at(m *topology.Machine, when float64, class string, size float64) {
	m.Eng.At(when, func() {
		m.Fab.StartAfter(class, 0, size, 1.0, nil, nil)
	})
}

func TestOverlapExactSyntheticTimeline(t *testing.T) {
	m := syntheticMachine(t)
	// net:  [0,2)         [4,4.5)
	// copy:    [1,3)        [4.25,5.25)
	// both: [1,2)=1       [4.25,4.5)=0.25
	at(m, 0, "net", 2)
	at(m, 1, "copy", 2)
	at(m, 4, "net", 0.5)
	at(m, 4.25, "copy", 1)
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	o := MeasureOverlap(m)
	if o.NetBusy != 2.5 {
		t.Errorf("NetBusy = %g, want exactly 2.5", o.NetBusy)
	}
	if o.CopyBusy != 3.0 {
		t.Errorf("CopyBusy = %g, want exactly 3.0", o.CopyBusy)
	}
	if o.Both != 1.25 {
		t.Errorf("Both = %g, want exactly 1.25", o.Both)
	}
	if got, want := o.HiddenFraction(), 1.25/3.0; got != want {
		t.Errorf("HiddenFraction = %g, want %g", got, want)
	}
}

// Concurrent flows of one class must not double-count busy time.
func TestOverlapConcurrentSameClassCountsOnce(t *testing.T) {
	m := syntheticMachine(t)
	// net: [0,2) and [1,1.5) nested inside it; busy time is 2, not 2.5.
	at(m, 0, "net", 2)
	at(m, 1, "net", 0.5)
	// copy: [0.5,1.25) — overlap with net is the full 0.75.
	at(m, 0.5, "copy", 0.75)
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	o := MeasureOverlap(m)
	if o.NetBusy != 2.0 {
		t.Errorf("NetBusy = %g, want exactly 2.0 (nested flow double-counted?)", o.NetBusy)
	}
	if o.CopyBusy != 0.75 {
		t.Errorf("CopyBusy = %g, want exactly 0.75", o.CopyBusy)
	}
	if o.Both != 0.75 {
		t.Errorf("Both = %g, want exactly 0.75", o.Both)
	}
}

// Back-to-back flows with a gap: the gap must not count.
func TestOverlapGapsExcluded(t *testing.T) {
	m := syntheticMachine(t)
	at(m, 0, "net", 1)    // [0,1)
	at(m, 2, "net", 1)    // [2,3)
	at(m, 0.5, "copy", 3) // [0.5,3.5): overlaps [0.5,1) and [2,3)
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	o := MeasureOverlap(m)
	if o.NetBusy != 2.0 {
		t.Errorf("NetBusy = %g, want exactly 2.0", o.NetBusy)
	}
	if o.Both != 1.5 {
		t.Errorf("Both = %g, want exactly 1.5", o.Both)
	}
	if o.HiddenFraction() != 0.5 {
		t.Errorf("HiddenFraction = %g, want exactly 0.5", o.HiddenFraction())
	}
}

func TestZeroActivityOverlap(t *testing.T) {
	m := syntheticMachine(t)
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	o := MeasureOverlap(m)
	if o.NetBusy != 0 || o.CopyBusy != 0 || o.Both != 0 {
		t.Fatalf("idle machine reports activity: %+v", o)
	}
	if o.HiddenFraction() != 0 {
		t.Fatalf("HiddenFraction on idle machine = %g", o.HiddenFraction())
	}
}
