package core

import (
	"fmt"

	"hierknem/internal/buffer"
	"hierknem/internal/coll"
	"hierknem/internal/hier"
	"hierknem/internal/knem"
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
		m.allgatherLeader(p, c, sbuf, rbuf)
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

// allgatherLeader is the three-step leader-based algorithm with KNEM
// offload: (1) non-leaders push their blocks into the leader's rbuf with
// one-sided puts, (2) leaders exchange node blocks over the inter-node ring,
// (3) non-leaders pull the full result with one-sided gets. The leader only
// synchronizes around the one-sided phases, dedicating itself to the
// inter-node exchange — but every local byte still crosses the leader's
// memory bus, the hot spot that motivates the ring for large nodes.
func (m *Module) allgatherLeader(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer) {
	var scratch hier.Hierarchy
	hy := m.hierarchy(p, c, 0, &scratch)
	lcomm := hy.LComm
	block := sbuf.Len()
	key := mpi.BBKey{Op: "hkag", Seq: lcomm.Seq(p)}

	nodeBytes := block * int64(lcomm.Size())
	nodes := hy.NodeCount
	me := hy.NodeIndex
	// Ring-arrival schedule: after inter-node step s, the block of node
	// recvIdx(s) is present in the local leader's rbuf. Known to every
	// local rank without communication.
	recvIdx := func(s int) int { return (me - s - 1 + 2*nodes) % nodes }

	// Step 1 — every local rank pushing its block into the leader's rbuf —
	// runs as a small stretch (mpi.SmallIntraNode) when blocks fit the
	// fabric bypass. Steps 2-3 interleave the leader's inter-node ring with
	// the non-leaders' pulls of whole node blocks, so they are not.
	p.BeginSmallStretch(lcomm, block)
	if hy.IsLeader {
		sh := publish(p, lcomm, key, rbuf, knem.RightRead|knem.RightWrite)
		// My own block goes straight into place.
		rbuf.Slice(int64(c.Rank(p))*block, block).CopyFrom(sbuf)
		lcomm.Barrier(p) // step 1 complete: all local blocks pushed
		p.EndSmallStretch()

		// Step 2 pipelined with step 3: after each ring exchange the
		// just-arrived node block is released to the local non-leaders,
		// who fetch it while the leader keeps exchanging.
		ll := hy.LLComm
		for s := 0; s < nodes-1; s++ {
			sendIdx := (me - s + nodes) % nodes
			sb := rbuf.Slice(int64(sendIdx)*nodeBytes, nodeBytes)
			rb := rbuf.Slice(int64(recvIdx(s))*nodeBytes, nodeBytes)
			right := (me + 1) % nodes
			left := (me - 1 + nodes) % nodes
			r := p.Irecv(ll, rb, left, hkTag+2000+s)
			sr := p.Isend(ll, sb, right, hkTag+2000+s)
			p.Wait(r)
			p.Wait(sr)
			lcomm.Barrier(p) // release block recvIdx(s)
		}
		lcomm.Barrier(p) // wait for the last fetches
		sh.withdraw(p, lcomm, key)
		return
	}

	// Non-leader.
	sh := lookup(p, lcomm, key)
	// Step 1: push my block into the leader's rbuf (one-sided, offloaded).
	sh.put(p, int64(c.Rank(p))*block, sbuf)
	lcomm.Barrier(p)
	p.EndSmallStretch()
	// My own node's aggregate can be pulled right away; remote blocks as
	// they arrive (one-sided, overlapping the leader's ring).
	myNodeOff := int64(me) * nodeBytes
	sh.get(p, myNodeOff, rbuf.Slice(myNodeOff, nodeBytes))
	for s := 0; s < nodes-1; s++ {
		lcomm.Barrier(p) // wait for block recvIdx(s)
		off := int64(recvIdx(s)) * nodeBytes
		sh.get(p, off, rbuf.Slice(off, nodeBytes))
	}
	lcomm.Barrier(p)
}
