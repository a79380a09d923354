package hier

import (
	"runtime"
	"testing"
	"time"

	"hierknem/internal/mpi"
	"hierknem/internal/topology"
)

func testWorld(t testing.TB, nodes, cores, np int, bynode bool) *mpi.World {
	t.Helper()
	m, err := topology.Build(topology.Spec{
		Name: "hiertest", Nodes: nodes, SocketsPerNode: 1, CoresPerSocket: cores,
		MemBandwidth: 10e9, CoreCopyBandwidth: 3e9, L3Bandwidth: 6e9,
		L3Size: 12 << 20, ShmLatency: 1e-6,
		NetBandwidth: 1e9, NetLatency: 10e-6, NetFullDuplex: true,
		EagerThreshold: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b *topology.Binding
	if bynode {
		b, err = topology.ByNode(m, np)
	} else {
		b, err = topology.ByCore(m, np)
	}
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(m, b, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildStructure(t *testing.T) {
	w := testWorld(t, 3, 4, 12, false)
	err := w.Run(func(p *mpi.Proc) {
		c := w.WorldComm()
		h := Build(p, c, 0)
		if h.LComm.Size() != 4 {
			t.Errorf("rank %d: lcomm size %d, want 4", c.Rank(p), h.LComm.Size())
		}
		if !h.LComm.IntraNode() {
			t.Errorf("rank %d: lcomm spans nodes", c.Rank(p))
		}
		if h.NodeCount != 3 {
			t.Errorf("NodeCount = %d", h.NodeCount)
		}
		if h.IsLeader {
			if h.LLComm == nil || h.LLComm.Size() != 3 {
				t.Errorf("leader rank %d: bad llcomm", c.Rank(p))
			}
		} else if h.LLComm != nil {
			t.Errorf("non-leader rank %d has llcomm", c.Rank(p))
		}
		// Leader of node i under by-core is rank 4i.
		if leader := c.Rank(h.LComm.Proc(0)); leader != (c.Rank(p)/4)*4 {
			t.Errorf("rank %d: leader %d", c.Rank(p), leader)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRootPromotedToLeader(t *testing.T) {
	w := testWorld(t, 2, 4, 8, false)
	const root = 6 // node 1, not its lowest rank
	err := w.Run(func(p *mpi.Proc) {
		c := w.WorldComm()
		h := Build(p, c, root)
		if c.Rank(p) == root && !h.IsLeader {
			t.Error("root was not promoted to leader")
		}
		if c.Rank(p) == 4 && h.IsLeader {
			t.Error("rank 4 should have been displaced by the promoted root")
		}
		if leader := c.Rank(h.LComm.Proc(0)); p.Core().NodeID == 1 && leader != root {
			t.Errorf("node 1 leader = %d, want %d", leader, root)
		}
		if h.RootNodeIndex != 1 {
			t.Errorf("RootNodeIndex = %d, want 1", h.RootNodeIndex)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLLCommOrderedByNode(t *testing.T) {
	w := testWorld(t, 4, 2, 8, true) // bynode: leaders are ranks 0..3
	err := w.Run(func(p *mpi.Proc) {
		c := w.WorldComm()
		h := Build(p, c, 0)
		if !h.IsLeader {
			return
		}
		// llcomm rank must equal the dense node index.
		if h.LLComm.Rank(p) != h.NodeIndex {
			t.Errorf("leader on node %d has llcomm rank %d, node index %d",
				p.Core().NodeID, h.LLComm.Rank(p), h.NodeIndex)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewCommExcludesFirstLeader(t *testing.T) {
	w := testWorld(t, 2, 4, 8, false)
	err := w.Run(func(p *mpi.Proc) {
		c := w.WorldComm()
		h := Build(p, c, 0)
		nc := h.NewComm(p)
		lrank := h.LComm.Rank(p)
		if lrank == 0 {
			if nc != nil {
				t.Errorf("1st leader got a new_comm")
			}
			return
		}
		if nc == nil {
			t.Errorf("rank %d (lrank %d) got nil new_comm", c.Rank(p), lrank)
			return
		}
		if nc.Size() != 3 {
			t.Errorf("new_comm size %d, want 3", nc.Size())
		}
		// 2nd leader (lrank 1) must be new_comm rank 0.
		if lrank == 1 && nc.Rank(p) != 0 {
			t.Errorf("2nd leader has new_comm rank %d", nc.Rank(p))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSingleRankNodes(t *testing.T) {
	w := testWorld(t, 4, 2, 4, true) // one rank per node
	err := w.Run(func(p *mpi.Proc) {
		c := w.WorldComm()
		h := Build(p, c, 0)
		if h.LComm.Size() != 1 || !h.IsLeader {
			t.Errorf("rank %d: lcomm %d leader %v", c.Rank(p), h.LComm.Size(), h.IsLeader)
		}
		if h.NewComm(p) != nil {
			t.Errorf("new_comm on single-rank node")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// By-node binding interleaves ranks over nodes, so node membership, the
// leader and the dense indices all differ from the by-core arithmetic; the
// root is neither rank 0 nor its node's lowest rank.
func TestBuildByNodeBinding(t *testing.T) {
	w := testWorld(t, 4, 3, 12, true) // rank r lives on node r%4
	const root = 6                    // node 2, whose lowest rank is 2
	err := w.Run(func(p *mpi.Proc) {
		c := w.WorldComm()
		me := c.Rank(p)
		h := Build(p, c, root)
		node := me % 4
		wantLeader := node
		if node == root%4 {
			wantLeader = root
		}
		if h.NodeCount != 4 || h.NodeIndex != node || h.RootNodeIndex != root%4 {
			t.Errorf("rank %d: NodeCount %d NodeIndex %d RootNodeIndex %d, want 4 %d %d",
				me, h.NodeCount, h.NodeIndex, h.RootNodeIndex, node, root%4)
		}
		if leader := c.Rank(h.LComm.Proc(0)); leader != wantLeader || h.IsLeader != (me == wantLeader) {
			t.Errorf("rank %d: leader %d IsLeader %v, want leader %d", me, leader, h.IsLeader, wantLeader)
		}
		if h.IsLeader && h.LLComm.Rank(p) != h.NodeIndex {
			t.Errorf("leader %d: llcomm rank %d, node index %d", me, h.LLComm.Rank(p), h.NodeIndex)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A sub-communicator over nodes {1, 3} of 4: dense node indices skip the
// unoccupied nodes, and root/leader are sub-communicator ranks.
func TestBuildSparseNodeSubComm(t *testing.T) {
	w := testWorld(t, 4, 4, 16, false)
	const root = 6 // sub rank 6 = world rank 14, node 3, not its lowest rank
	err := w.Run(func(p *mpi.Proc) {
		color := mpi.Undefined
		if n := p.Core().NodeID; n == 1 || n == 3 {
			color = 0
		}
		c := w.WorldComm().Split(p, color, p.Rank())
		if c == nil {
			return
		}
		me := c.Rank(p)
		h := Build(p, c, root)
		wantIndex, wantLeader := me/4, me/4*4
		if wantIndex == 1 {
			wantLeader = root
		}
		if h.NodeCount != 2 || h.NodeIndex != wantIndex || h.RootNodeIndex != 1 {
			t.Errorf("sub rank %d: NodeCount %d NodeIndex %d RootNodeIndex %d, want 2 %d 1",
				me, h.NodeCount, h.NodeIndex, h.RootNodeIndex, wantIndex)
		}
		if leader := c.Rank(h.LComm.Proc(0)); leader != wantLeader || h.IsLeader != (me == wantLeader) {
			t.Errorf("sub rank %d: leader %d IsLeader %v, want leader %d", me, leader, h.IsLeader, wantLeader)
		}
		if h.IsLeader && (h.LLComm.Size() != 2 || h.LLComm.Rank(p) != wantIndex) {
			t.Errorf("leader %d: llcomm size %d rank %d", me, h.LLComm.Size(), h.LLComm.Rank(p))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// buildCost768 returns what one collective Build on 32 x 24 ranks, bound by
// core or by node, costs the host per rank: a run of two Builds less a run
// of one, so the cost of spawning the ranks cancels.
func buildCost768(tb testing.TB, bynode bool) (ns, bytes, mallocs float64) {
	const np = 768
	w := testWorld(tb, 32, 24, np, bynode)
	run := func(builds int) (time.Duration, runtime.MemStats) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		err := w.Run(func(p *mpi.Proc) {
			for i := 0; i < builds; i++ {
				Build(p, w.WorldComm(), i)
			}
		})
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			tb.Fatal(err)
		}
		after.TotalAlloc -= before.TotalAlloc
		after.Mallocs -= before.Mallocs
		return elapsed, after
	}
	run(2) // warm the event pool and create the world communicator
	t1, m1 := run(1)
	t2, m2 := run(2)
	return float64(t2-t1) / np, float64(m2.TotalAlloc-m1.TotalAlloc) / np, float64(m2.Mallocs-m1.Mallocs) / np
}

// Build reads the node facts from the communicator's placement index and
// returns the Hierarchy by value, so a rank's share of one call is only its
// slice of the two Splits' staging and of the communicators they mint (one
// record, one member list and one table each). The bounds sit between that
// and the previous heap Hierarchy plus map-indexed communicators (199 B and
// 1.31 mallocs per rank): neither a per-call Hierarchy nor a per-rank scan
// can come back unnoticed. The by-node row holds the same bounds: its node
// communicators' members are spread over the whole world, and a rank index
// sized by that spread rather than by the member count would break them.
func TestBuildCostPerRank(t *testing.T) {
	for _, bynode := range []bool{false, true} {
		_, bytes, mallocs := buildCost768(t, bynode)
		t.Logf("one 768-rank Build (bynode %v): %.0f B and %.2f mallocs per rank", bynode, bytes, mallocs)
		if bytes > 150 || mallocs > 0.5 {
			t.Errorf("one 768-rank Build (bynode %v) costs %.0f B and %.2f mallocs per rank, want at most 150 B and 0.5", bynode, bytes, mallocs)
		}
	}
}

func BenchmarkBuild768(b *testing.B) {
	var ns, bytes, mallocs float64
	for i := 0; i < b.N; i++ {
		n, by, m := buildCost768(b, false)
		ns, bytes, mallocs = ns+n, bytes+by, mallocs+m
	}
	n := float64(b.N)
	b.ReportMetric(ns/n, "ns/rank")
	b.ReportMetric(bytes/n, "B/rank")
	b.ReportMetric(mallocs/n, "allocs/rank")
}
