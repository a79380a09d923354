package shm

import (
	"bytes"
	"math"
	"testing"

	"hierknem/internal/buffer"
	"hierknem/internal/des"
	"hierknem/internal/topology"
)

func testMachine(t *testing.T) *topology.Machine {
	t.Helper()
	m, err := topology.Build(topology.Spec{
		Name:              "shmtest",
		Nodes:             1,
		SocketsPerNode:    2,
		CoresPerSocket:    2,
		MemBandwidth:      100, // tiny numbers for exact arithmetic
		CoreCopyBandwidth: 40,
		L3Bandwidth:       80,
		L3Size:            1 << 20,
		ShmLatency:        0.5,
		NetBandwidth:      10,
		NetLatency:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCopyDuration(t *testing.T) {
	m := testMachine(t)
	s0, s1 := m.Nodes[0].Sockets[0], m.Nodes[0].Sockets[1]
	core := s0.Cores[0]
	var end float64
	m.Eng.Spawn("copier", func(p *des.Proc) {
		Copy(p, m, core, s0, s1, 40, 0)
		end = p.Now()
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 0.5 latency + 40 bytes at core ceiling 40 B/s = 1.5 s
	if !almost(end, 1.5) {
		t.Fatalf("copy finished at %g, want 1.5", end)
	}
}

func TestSameSocketCopyChargesBusTwice(t *testing.T) {
	m := testMachine(t)
	s0 := m.Nodes[0].Sockets[0]
	// Four concurrent same-socket copies: each wants 40 B/s but consumes
	// 2x on the bus; bus 100 B/s -> each runs at 12.5 B/s effective.
	var last float64
	for i := 0; i < 4; i++ {
		core := s0.Cores[i%2]
		m.Eng.Spawn("c", func(p *des.Proc) {
			Copy(p, m, core, s0, s0, 100, 0)
			last = p.Now()
		})
	}
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	// rate per flow: bus carries 8 "shares" (4 flows x2); 100/8 = 12.5 B/s
	// 100 bytes / 12.5 = 8 s, + 0.5 latency.
	if !almost(last, 8.5) {
		t.Fatalf("copies finished at %g, want 8.5", last)
	}
}

func TestCrossSocketCopiesShareBothBuses(t *testing.T) {
	m := testMachine(t)
	s0, s1 := m.Nodes[0].Sockets[0], m.Nodes[0].Sockets[1]
	var last float64
	// Two cross-socket copies from s0 to s1: each capped by core at 40;
	// buses have 100 each so both copies run at 40.
	for i := 0; i < 2; i++ {
		core := s1.Cores[i]
		m.Eng.Spawn("c", func(p *des.Proc) {
			Copy(p, m, core, s0, s1, 80, 0)
			last = p.Now()
		})
	}
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(last, 2.5) {
		t.Fatalf("copies finished at %g, want 2.5 (80/40 + 0.5)", last)
	}
}

func TestZeroByteCopyPaysLatencyOnly(t *testing.T) {
	m := testMachine(t)
	s0 := m.Nodes[0].Sockets[0]
	var end float64
	m.Eng.Spawn("c", func(p *des.Proc) {
		Copy(p, m, s0.Cores[0], s0, s0, 0, 0)
		end = p.Now()
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(end, 0.5) {
		t.Fatalf("zero copy finished at %g, want 0.5", end)
	}
}

func TestCopyBufferMovesDataAndWarmsCache(t *testing.T) {
	m := testMachine(t)
	s0, s1 := m.Nodes[0].Sockets[0], m.Nodes[0].Sockets[1]
	src := buffer.NewReal([]byte{1, 2, 3, 4})
	dst := buffer.NewReal(make([]byte, 4))
	m.Eng.Spawn("c", func(p *des.Proc) {
		CopyBuffer(p, m, s1.Cores[0], s0, s1, src, dst)
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Data(), []byte{1, 2, 3, 4}) {
		t.Fatalf("dst = %v", dst.Data())
	}
	if res, _ := s1.ReadSide(&m.Spec, dst.ID(), dst.Len(), true); res != s1.L3Bus {
		t.Fatalf("a read of the destination after the copy is served by %s, want the L3 port", res.Name)
	}
}

func TestL3ResidentSourceCopiesFaster(t *testing.T) {
	m := testMachine(t)
	s0 := m.Nodes[0].Sockets[0]
	src := buffer.NewReal(make([]byte, 80))
	s0.Touch(src.ID(), src.Len())
	var warm float64
	m.Eng.Spawn("c", func(p *des.Proc) {
		Copy(p, m, s0.Cores[0], s0, s0, src.Len(), src.ID())
		warm = p.Now()
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	// warm read: served from the L3 port (default 3x mem bandwidth) at
	// the L3 per-core cap 80 B/s, writing through the 100 B/s mem bus:
	// 80/80 = 1.0 + 0.5 latency = 1.5
	if !almost(warm, 1.5) {
		t.Fatalf("warm copy at %g, want 1.5", warm)
	}
}

func TestCopyInOutDoubleCost(t *testing.T) {
	m := testMachine(t)
	s0 := m.Nodes[0].Sockets[0]
	src := buffer.NewReal([]byte{5, 6, 7, 8})
	dst := buffer.NewReal(make([]byte, 4))
	var end float64
	m.Eng.Spawn("c", func(p *des.Proc) {
		CopyInOut(p, m, s0.Cores[0], s0.Cores[1], src, dst)
		end = p.Now()
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Data(), []byte{5, 6, 7, 8}) {
		t.Fatalf("dst = %v", dst.Data())
	}
	// Two sequential copies of 4 bytes at 40 B/s (0.1 each) + 2 latencies.
	if !almost(end, 1.2) {
		t.Fatalf("copy-in/copy-out finished at %g, want 1.2", end)
	}

	// Single-copy equivalent for comparison: one latency, one transfer.
	m2 := testMachine(t)
	t0 := m2.Nodes[0].Sockets[0]
	var single float64
	m2.Eng.Spawn("c", func(p *des.Proc) {
		Copy(p, m2, t0.Cores[1], t0, t0, 4, 0)
		single = p.Now()
	})
	if err := m2.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if single >= end {
		t.Fatalf("single copy (%g) not cheaper than copy-in/copy-out (%g)", single, end)
	}
}
