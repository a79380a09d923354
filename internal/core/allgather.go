package core

import (
	"fmt"

	"hierknem/internal/buffer"
	"hierknem/internal/coll"
	"hierknem/internal/hier"
	"hierknem/internal/mpi"
)

// AllgatherAlg selects HierKNEM's Allgather algorithm (Options.ForceAllgather).
type AllgatherAlg int

const (
	// AllgatherAuto selects by processes per node: leader-based up to 6,
	// the topology-aware ring above (section III-D).
	AllgatherAuto AllgatherAlg = iota
	// AllgatherLeader forces the leader-based algorithm.
	AllgatherLeader
	// AllgatherRing forces the topology-aware ring.
	AllgatherRing
)

// allgatherLeaderMaxPPN is the largest processes-per-node count for which
// AllgatherAuto selects the leader-based algorithm.
const allgatherLeaderMaxPPN = 6

// String returns the name Figure 2 prints for the algorithm.
func (a AllgatherAlg) String() string {
	names := [...]string{"auto", "leader", "ring"}
	if a >= 0 && int(a) < len(names) {
		return names[a]
	}
	return fmt.Sprintf("AllgatherAlg(%d)", int(a))
}

// Allgather implements section III-D: a leader-based algorithm for small
// nodes and a topology-aware ring for large NUMA nodes, selected by the
// processes-per-node count (or forced via Options.ForceAllgather, as in the
// Figure 2 study).
func (m *Module) Allgather(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer) {
	alg := m.Opt.ForceAllgather
	switch alg {
	case AllgatherAuto:
		alg = AllgatherRing
		if c.MaxPPN() <= allgatherLeaderMaxPPN {
			alg = AllgatherLeader
		}
	case AllgatherLeader, AllgatherRing:
	default:
		panic(fmt.Sprintf("core: unknown Allgather algorithm %v", alg))
	}
	if c.Size() == 1 {
		rbuf.CopyFrom(sbuf)
		return
	}
	if alg == AllgatherLeader && c.UniformBlocks() {
		// The three-step leader-based algorithm with KNEM offload: (1)
		// non-leaders push their blocks into the leader's rbuf with
		// one-sided puts, (2) leaders exchange node blocks over the
		// inter-node ring, (3) non-leaders pull each node block with a
		// one-sided get once the ring has brought it. The leader only
		// synchronizes around the one-sided phases, dedicating itself to the
		// inter-node exchange — but every local byte still crosses the
		// leader's memory bus, the hot spot that motivates the ring for
		// large nodes. Step 1 runs as a small stretch (mpi.SmallIntraNode)
		// when blocks fit the fabric bypass; steps 2-3, interleaved, do not.
		if !m.Opt.CacheTopology {
			build(p, shape{role: allgatherNonLeader}, c, m.Opt.TopoDetectCost, rbuf, sbuf, coll.ReduceArgs{})
			return
		}
		hy := m.hierarchy(p, c, 0, nil)
		sh := allgatherShape(p, hy, sbuf, rbuf)
		run(p, sh, hy.LComm, hy.LLComm, rbuf, sbuf, coll.ReduceArgs{}, hy.LComm.Seq(p))
		return
	}
	// Topology-aware ring: the logical ring follows physical distance, so
	// only set-boundary edges cross slow links; receives are posted before
	// sends so both ring directions progress concurrently.
	var order []int // nil is the ablation: topology-unaware rank order
	if !m.Opt.RankOrderedRing {
		order = c.PhysicalOrder()
	}
	coll.AllgatherRing(p, c, sbuf, rbuf, order, true)
}

// allgatherShape is p's role in the leader-based Allgather on hy. It opens
// step 1's small stretch, and a leader's own block goes straight into
// place in rbuf.
func allgatherShape(p *mpi.Proc, hy *hier.Hierarchy, sbuf, rbuf *buffer.Buffer) shape {
	me := hy.Comm.Rank(p)
	p.BeginSmallStretch(hy.LComm, sbuf.Len())
	sh := shape{role: allgatherNonLeader, v: int32(hy.NodeIndex), root: int32(me), nseg: int32(hy.NodeCount),
		seg: sbuf.Len() * int64(hy.LComm.Size())}
	if hy.IsLeader {
		sh.role = allgatherLeader
		rbuf.Slice(int64(me)*sbuf.Len(), sbuf.Len()).CopyFrom(sbuf)
	}
	return sh
}
