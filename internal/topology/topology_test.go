package topology

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func testSpec(nodes, sockets, cores int) Spec {
	return Spec{
		Name:              "test",
		Nodes:             nodes,
		SocketsPerNode:    sockets,
		CoresPerSocket:    cores,
		MemBandwidth:      10e9,
		CoreCopyBandwidth: 3e9,
		L3Bandwidth:       8e9,
		L3Size:            12 << 20,
		ShmLatency:        1e-6,
		NetBandwidth:      125e6,
		NetLatency:        50e-6,
		NetFullDuplex:     false,
		EagerThreshold:    4096,
	}
}

func mustBuild(t *testing.T, s Spec) *Machine {
	t.Helper()
	m, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildShape(t *testing.T) {
	m := mustBuild(t, testSpec(4, 2, 3))
	if len(m.Nodes) != 4 {
		t.Fatalf("nodes = %d, want 4", len(m.Nodes))
	}
	if got := m.Spec.TotalCores(); got != 24 {
		t.Fatalf("total cores = %d, want 24", got)
	}
	// Global core ids are dense and consistent.
	for gid := 0; gid < 24; gid++ {
		c := m.Core(gid)
		if c.GID != gid {
			t.Fatalf("core %d has GID %d", gid, c.GID)
		}
		wantNode := gid / 6
		if c.NodeID != wantNode {
			t.Fatalf("core %d on node %d, want %d", gid, c.NodeID, wantNode)
		}
	}
}

// TestBuildValidation: every bad numeric field is an error from Build, not
// a panic deeper in the stack (a NaN latency in des, a NaN or infinite
// bandwidth in fabric.NewResource) and not a silently accepted spec. Zero
// keeps its documented meaning where a field has one.
func TestBuildValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		edit func(s *Spec)
		want string // error substring; "" means accepted
	}{
		{"zero nodes", func(s *Spec) { s.Nodes = 0 }, "Nodes = 0"},
		{"negative MemBandwidth", func(s *Spec) { s.MemBandwidth = -1 }, "MemBandwidth = -1"},
		{"NaN NetLatency", func(s *Spec) { s.NetLatency = nan }, "NetLatency = NaN"},
		{"NaN ShmLatency", func(s *Spec) { s.ShmLatency = nan }, "ShmLatency = NaN"},
		{"NaN MemBandwidth", func(s *Spec) { s.MemBandwidth = nan }, "MemBandwidth = NaN"},
		{"+Inf NetBandwidth", func(s *Spec) { s.NetBandwidth = inf }, "NetBandwidth = +Inf"},
		{"-Inf CoreCopyBandwidth", func(s *Spec) { s.CoreCopyBandwidth = -inf }, "CoreCopyBandwidth = -Inf"},
		{"+Inf L3Bandwidth", func(s *Spec) { s.L3Bandwidth = inf }, "L3Bandwidth = +Inf"},
		{"zero NetBandwidth", func(s *Spec) { s.NetBandwidth = 0 }, "NetBandwidth = 0"},
		{"negative NetLatency", func(s *Spec) { s.NetLatency = -1 }, "NetLatency = -1"},
		{"negative L3TotalBandwidth", func(s *Spec) { s.L3TotalBandwidth = -1 }, "L3TotalBandwidth = -1"},
		{"negative L3Bandwidth", func(s *Spec) { s.L3Bandwidth = -1 }, "L3Bandwidth = -1"},
		{"negative L3Size", func(s *Spec) { s.L3Size = -1 }, "L3Size = -1"},
		{"negative EagerThreshold", func(s *Spec) { s.EagerThreshold = -1 }, "EagerThreshold = -1"},
		{"zero L3 and eager fields", func(s *Spec) {
			s.L3Bandwidth, s.L3TotalBandwidth, s.L3Size, s.EagerThreshold = 0, 0, 0, 0
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testSpec(2, 2, 3)
			tc.edit(&s)
			_, err := Build(s)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Build rejected a valid spec: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Build error = %v, want one holding %q", err, tc.want)
			}
		})
	}
}

func TestHalfVsFullDuplexNIC(t *testing.T) {
	s := testSpec(2, 1, 2)
	s.NetFullDuplex = false
	m := mustBuild(t, s)
	if m.Nodes[0].NicTx != m.Nodes[0].NicRx {
		t.Fatal("half-duplex NIC should alias TX and RX")
	}
	s.NetFullDuplex = true
	m = mustBuild(t, s)
	if m.Nodes[0].NicTx == m.Nodes[0].NicRx {
		t.Fatal("full-duplex NIC should have distinct TX and RX")
	}
}

func TestByCoreBinding(t *testing.T) {
	m := mustBuild(t, testSpec(2, 1, 4))
	b, err := ByCore(m, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(m); err != nil {
		t.Fatal(err)
	}
	// Ranks 0-3 on node 0, ranks 4-5 on node 1.
	for r := 0; r < 4; r++ {
		if b.Core(m, r).NodeID != 0 {
			t.Fatalf("rank %d not on node 0", r)
		}
	}
	for r := 4; r < 6; r++ {
		if b.Core(m, r).NodeID != 1 {
			t.Fatalf("rank %d not on node 1", r)
		}
	}
}

func TestByNodeBinding(t *testing.T) {
	m := mustBuild(t, testSpec(3, 1, 2))
	b, err := ByNode(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(m); err != nil {
		t.Fatal(err)
	}
	wantNodes := []int{0, 1, 2, 0, 1}
	for r, want := range wantNodes {
		if got := b.Core(m, r).NodeID; got != want {
			t.Fatalf("rank %d on node %d, want %d", r, got, want)
		}
	}
}

func TestByNodeSkipsExhaustedNodes(t *testing.T) {
	// Asymmetric usage is impossible with identical nodes, but the full
	// machine forces wraparound with skipping when np == total.
	m := mustBuild(t, testSpec(2, 1, 3))
	b, err := ByNode(m, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(m); err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for r := 0; r < 6; r++ {
		counts[b.Core(m, r).NodeID]++
	}
	if counts[0] != 3 || counts[1] != 3 {
		t.Fatalf("per-node counts = %v, want 3 each", counts)
	}
}

func TestBindingOverflow(t *testing.T) {
	m := mustBuild(t, testSpec(2, 1, 2))
	if _, err := ByCore(m, 5); err == nil {
		t.Fatal("ByCore accepted np > cores")
	}
	if _, err := ByNode(m, 5); err == nil {
		t.Fatal("ByNode accepted np > cores")
	}
}

func TestValidateRejectsDuplicates(t *testing.T) {
	m := mustBuild(t, testSpec(2, 1, 2))
	b := Custom("dup", []int{0, 0})
	if err := b.Validate(m); err == nil {
		t.Fatal("Validate accepted duplicate core binding")
	}
	b = Custom("oob", []int{0, 99})
	if err := b.Validate(m); err == nil {
		t.Fatal("Validate accepted out-of-range core")
	}
}

func TestLeadersAndGroups(t *testing.T) {
	m := mustBuild(t, testSpec(3, 1, 2))
	b, _ := ByNode(m, 6)
	groups := b.RanksByNode(m)
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	// bynode: node0 {0,3}, node1 {1,4}, node2 {2,5}
	if groups[0][0] != 0 || groups[0][1] != 3 {
		t.Fatalf("node0 ranks = %v", groups[0])
	}
	leaders := b.Leaders(m)
	want := []int{0, 1, 2}
	for i := range want {
		if leaders[i] != want[i] {
			t.Fatalf("leaders = %v, want %v", leaders, want)
		}
	}
}

func TestPhysicalOrderClusters(t *testing.T) {
	m := mustBuild(t, testSpec(2, 2, 2))
	b, _ := ByNode(m, 8)
	order := b.PhysicalOrder(m)
	// Consecutive entries must never go backwards in (node, socket).
	for i := 1; i < len(order); i++ {
		a := b.Core(m, order[i-1])
		c := b.Core(m, order[i])
		if a.NodeID > c.NodeID {
			t.Fatalf("physical order visits node %d after %d", c.NodeID, a.NodeID)
		}
		if a.NodeID == c.NodeID && a.Socket.ID > c.Socket.ID {
			t.Fatalf("physical order visits socket %d after %d on node %d",
				c.Socket.ID, a.Socket.ID, a.NodeID)
		}
	}
}

func TestCrossNodeEdges(t *testing.T) {
	m := mustBuild(t, testSpec(4, 1, 4))
	b, _ := ByCore(m, 16)

	rankOrder := make([]int, 16)
	for i := range rankOrder {
		rankOrder[i] = i
	}
	// by-core: rank order already clusters nodes -> 4 crossing edges.
	if got := CrossNodeEdges(m, b, rankOrder); got != 4 {
		t.Fatalf("bycore rank-ring crossings = %d, want 4", got)
	}

	bn, _ := ByNode(m, 16)
	// by-node binding with rank-ordered ring: every edge crosses nodes.
	if got := CrossNodeEdges(m, bn, rankOrder); got != 16 {
		t.Fatalf("bynode rank-ring crossings = %d, want 16", got)
	}
	// ...but the physical order restores the minimum.
	if got := CrossNodeEdges(m, bn, bn.PhysicalOrder(m)); got != 4 {
		t.Fatalf("bynode physical-ring crossings = %d, want 4", got)
	}
}

func TestCacheTouchAndResidency(t *testing.T) {
	m := mustBuild(t, testSpec(1, 1, 2))
	s := m.Nodes[0].Sockets[0]
	s.Touch(1, 4<<20)
	if !s.Resident(1) {
		t.Fatal("buffer 1 should be resident")
	}
	// Oversized buffers are never resident.
	s.Touch(2, 64<<20)
	if s.Resident(2) {
		t.Fatal("oversized buffer marked resident")
	}
	// Filling the cache evicts the oldest entry.
	s.Touch(3, 6<<20)
	s.Touch(4, 6<<20) // 4+6+6 > 12 MB: buffer 1 evicted
	if s.Resident(1) {
		t.Fatal("buffer 1 should have been evicted")
	}
	if !s.Resident(4) {
		t.Fatal("buffer 4 should be resident")
	}
}

// TestReadBandwidthUsesL3WhenResident: ReadSide serves a same-socket read of
// a resident buffer from the L3 port at L3 bandwidth, and a cold one from
// the memory bus at the core copy ceiling.
func TestReadBandwidthUsesL3WhenResident(t *testing.T) {
	m := mustBuild(t, testSpec(1, 1, 2))
	s := m.Nodes[0].Sockets[0]
	spec := &m.Spec
	if res, got := s.ReadSide(spec, 7, 1<<20, true); res != s.MemBus || got != spec.CoreCopyBandwidth {
		t.Fatalf("cold read from %s at %g, want the memory bus at the core ceiling %g", res.Name, got, spec.CoreCopyBandwidth)
	}
	s.Touch(7, 1<<20)
	if res, got := s.ReadSide(spec, 7, 1<<20, true); res != s.L3Bus || got != spec.L3Bandwidth {
		t.Fatalf("warm read from %s at %g, want the L3 port at %g", res.Name, got, spec.L3Bandwidth)
	}
}

// Property: ByCore and ByNode always produce valid (injective, in-range)
// bindings whose physical order has the minimal number of cross-node ring
// edges (= number of occupied nodes, when more than one node is occupied).
func TestQuickBindingsValid(t *testing.T) {
	f := func(nodes8, socks8, cores8, np16 uint8) bool {
		nodes := int(nodes8%6) + 1
		socks := int(socks8%3) + 1
		cores := int(cores8%4) + 1
		total := nodes * socks * cores
		np := int(np16)%total + 1
		m, err := Build(testSpec(nodes, socks, cores))
		if err != nil {
			return false
		}
		for _, mk := range []func(*Machine, int) (*Binding, error){ByCore, ByNode} {
			b, err := mk(m, np)
			if err != nil || b.Validate(m) != nil {
				return false
			}
			occupied := 0
			for _, g := range b.RanksByNode(m) {
				if len(g) > 0 {
					occupied++
				}
			}
			cross := CrossNodeEdges(m, b, b.PhysicalOrder(m))
			if occupied == 1 && cross != 0 {
				return false
			}
			if occupied > 1 && cross != occupied {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
