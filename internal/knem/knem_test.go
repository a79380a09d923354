package knem

import (
	"bytes"
	"math"
	"testing"

	"hierknem/internal/buffer"
	"hierknem/internal/des"
	"hierknem/internal/topology"
)

func testMachine(t *testing.T, nodes int) *topology.Machine {
	t.Helper()
	m, err := topology.Build(topology.Spec{
		Name:              "knemtest",
		Nodes:             nodes,
		SocketsPerNode:    1,
		CoresPerSocket:    4,
		MemBandwidth:      100,
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

func TestRegisterGetDeliversData(t *testing.T) {
	m := testMachine(t, 1)
	d := NewDevice(m, 0)
	owner := m.Core(0)
	reader := m.Core(1)
	src := buffer.NewReal([]byte{10, 20, 30, 40})
	ck := d.Register(src, owner, RightRead)
	dst := buffer.NewReal(make([]byte, 4))
	m.Eng.Spawn("reader", func(p *des.Proc) {
		if err := d.Get(p, reader, ck, 0, dst); err != nil {
			t.Error(err)
		}
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Data(), []byte{10, 20, 30, 40}) {
		t.Fatalf("dst = %v", dst.Data())
	}
	s := d.Stats()
	if s.Gets != 1 || s.BytesCopied != 4 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestGetWithOffset(t *testing.T) {
	m := testMachine(t, 1)
	d := NewDevice(m, 0)
	src := buffer.NewReal([]byte{1, 2, 3, 4, 5, 6})
	ck := d.Register(src, m.Core(0), RightRead)
	dst := buffer.NewReal(make([]byte, 2))
	m.Eng.Spawn("r", func(p *des.Proc) {
		if err := d.Get(p, m.Core(1), ck, 3, dst); err != nil {
			t.Error(err)
		}
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Data(), []byte{4, 5}) {
		t.Fatalf("dst = %v, want [4 5]", dst.Data())
	}
}

func TestPutWritesRegion(t *testing.T) {
	m := testMachine(t, 1)
	d := NewDevice(m, 0)
	region := buffer.NewReal(make([]byte, 4))
	ck := d.Register(region, m.Core(0), RightWrite)
	src := buffer.NewReal([]byte{7, 8})
	m.Eng.Spawn("w", func(p *des.Proc) {
		if err := d.Put(p, m.Core(2), ck, 1, src); err != nil {
			t.Error(err)
		}
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(region.Data(), []byte{0, 7, 8, 0}) {
		t.Fatalf("region = %v", region.Data())
	}
}

func TestRightsEnforced(t *testing.T) {
	m := testMachine(t, 1)
	d := NewDevice(m, 0)
	buf := buffer.NewReal(make([]byte, 4))
	ckR := d.Register(buf, m.Core(0), RightRead)
	ckW := d.Register(buf, m.Core(0), RightWrite)
	m.Eng.Spawn("p", func(p *des.Proc) {
		if err := d.Put(p, m.Core(1), ckR, 0, buffer.NewReal([]byte{1})); err == nil {
			t.Error("Put allowed on read-only cookie")
		}
		if err := d.Get(p, m.Core(1), ckW, 0, buffer.NewReal(make([]byte, 1))); err == nil {
			t.Error("Get allowed on write-only cookie")
		}
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsChecked(t *testing.T) {
	m := testMachine(t, 1)
	d := NewDevice(m, 0)
	ck := d.Register(buffer.NewReal(make([]byte, 4)), m.Core(0), RightRead|RightWrite)
	m.Eng.Spawn("p", func(p *des.Proc) {
		if err := d.Get(p, m.Core(1), ck, 2, buffer.NewReal(make([]byte, 3))); err == nil {
			t.Error("out-of-bounds Get allowed")
		}
		if err := d.Put(p, m.Core(1), ck, -1, buffer.NewReal(make([]byte, 1))); err == nil {
			t.Error("negative-offset Put allowed")
		}
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeregisterInvalidatesCookie(t *testing.T) {
	m := testMachine(t, 1)
	d := NewDevice(m, 0)
	ck := d.Register(buffer.NewReal(make([]byte, 4)), m.Core(0), RightRead)
	if err := d.Deregister(ck); err != nil {
		t.Fatal(err)
	}
	if err := d.Deregister(ck); err == nil {
		t.Fatal("double deregister allowed")
	}
	m.Eng.Spawn("p", func(p *des.Proc) {
		if err := d.Get(p, m.Core(1), ck, 0, buffer.NewReal(make([]byte, 1))); err == nil {
			t.Error("Get on deregistered cookie allowed")
		}
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCrossNodeAccessRejected(t *testing.T) {
	m := testMachine(t, 2)
	d0 := NewDevice(m, 0)
	ck := d0.Register(buffer.NewReal(make([]byte, 4)), m.Core(0), RightRead)
	remote := m.Core(4) // node 1
	m.Eng.Spawn("p", func(p *des.Proc) {
		if err := d0.Get(p, remote, ck, 0, buffer.NewReal(make([]byte, 1))); err == nil {
			t.Error("cross-node Get allowed")
		}
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterWrongNodePanics(t *testing.T) {
	m := testMachine(t, 2)
	d0 := NewDevice(m, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-node Register did not panic")
		}
	}()
	d0.Register(buffer.NewReal(make([]byte, 1)), m.Core(4), RightRead)
}

// The paper's central mechanism: N non-leaders each Get their fragment
// concurrently, and the owner process is never blocked. Total time should be
// bounded by bus contention, not by N sequential owner-side copies.
func TestConcurrentGetsAreOneSided(t *testing.T) {
	m := testMachine(t, 1)
	d := NewDevice(m, 0)
	src := buffer.NewReal(make([]byte, 120))
	ck := d.Register(src, m.Core(0), RightRead)

	ownerFreeAt := -1.0
	m.Eng.Spawn("owner", func(p *des.Proc) {
		// The owner does no copy work; it is immediately free.
		ownerFreeAt = p.Now()
	})
	var last float64
	for i := 1; i < 4; i++ {
		core := m.Core(i)
		m.Eng.Spawn("reader", func(p *des.Proc) {
			dst := buffer.NewReal(make([]byte, 120))
			if err := d.Get(p, core, ck, 0, dst); err != nil {
				t.Error(err)
			}
			last = p.Now()
		})
	}
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if ownerFreeAt != 0 {
		t.Fatalf("owner blocked until %g", ownerFreeAt)
	}
	// 3 same-socket copies, each double-charging the 100 B/s bus: 6 shares
	// -> 16.67 B/s each; 120 bytes -> 7.2 s + 0.5 latency.
	if math.Abs(last-7.7) > 1e-9 {
		t.Fatalf("concurrent gets done at %g, want 7.7", last)
	}
}

func TestDevicesBuildsOnePerNode(t *testing.T) {
	m := testMachine(t, 3)
	ds := Devices(m)
	if len(ds) != 3 {
		t.Fatalf("devices = %d, want 3", len(ds))
	}
	for i, d := range ds {
		if d.nodeID != i {
			t.Fatalf("device %d has node id %d", i, d.nodeID)
		}
	}
}
