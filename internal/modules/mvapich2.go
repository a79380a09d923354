package modules

import (
	"hierknem/internal/buffer"
	"hierknem/internal/coll"
	"hierknem/internal/hier"
	"hierknem/internal/mpi"
)

// MVAPICH2Module models MVAPICH2 1.7's SMP-aware designs: two-level Bcast
// and Reduce through shared-memory leaders (copy-in/copy-out, phases not
// overlapped) and a leader-based Allgather. Its InfiniBand point-to-point
// stack has none of Open MPI's reduction quirk, which is why the paper's
// Figure 4(b) shows it winning large reductions.
type MVAPICH2Module struct{}

// MVAPICH2 1.7-like thresholds (bytes).
const (
	mvapich2BcastBinomialMax = 8 << 10
	mvapich2BcastChainSeg    = 64 << 10
	mvapich2ReduceChainMin   = 256 << 10
	mvapich2ReduceChainSeg   = 64 << 10
)

// MVAPICH2 returns the module with MVAPICH2 1.7-like defaults.
func MVAPICH2() *MVAPICH2Module { return &MVAPICH2Module{} }

func (m *MVAPICH2Module) Name() string { return "mvapich2" }

// Bcast: leaders over the network, then the shared-memory fan-out. Like
// Hierarch, phases are sequential — MVAPICH2's advantage over Open MPI's
// hierarch is only its better-matched inter-node tuning.
func (m *MVAPICH2Module) Bcast(p *mpi.Proc, c *mpi.Comm, buf *buffer.Buffer, root int) {
	hy := hier.Build(p, c, root)
	if hy.IsLeader && hy.LLComm.Size() > 1 {
		if buf.Len() < mvapich2BcastBinomialMax {
			coll.BcastBinomial(p, hy.LLComm, buf, hy.RootNodeIndex)
		} else {
			coll.BcastChain(p, hy.LLComm, buf, hy.RootNodeIndex, mvapich2BcastChainSeg)
		}
	}
	smBcastIntra(p, hy.LComm, buf)
}

// Reduce: shared-memory reduction to leaders, then an inter-node reduction
// (binomial below mvapich2ReduceChainMin, pipelined chain above), quirk-free — the
// clean InfiniBand reduction path that lets MVAPICH2 win Figure 4(b)'s
// large-message regime. Small messages use the leader-serial shared-segment
// reduction; large ones MVAPICH2's knomial pipelined intra-node scheme
// (modeled as a segmented fan-in-1 chain).
func (m *MVAPICH2Module) Reduce(p *mpi.Proc, c *mpi.Comm, a coll.ReduceArgs, sbuf, rbuf *buffer.Buffer, root int) {
	hy := hier.Build(p, c, root)
	isRoot := c.Rank(p) == root
	large := sbuf.Len() >= mvapich2ReduceChainMin

	var acc *buffer.Buffer
	if hy.IsLeader {
		if isRoot {
			acc = rbuf
		} else {
			acc = coll.Like(sbuf, sbuf.Len())
		}
		acc.CopyFrom(sbuf)
	}
	if large && hy.LComm.Size() > 1 {
		coll.ReduceChain(p, hy.LComm, a, sbuf, acc, 0, mvapich2ReduceChainSeg, 0)
	} else {
		smReduceIntra(p, hy.LComm, a, sbuf, acc)
	}
	if hy.IsLeader && hy.LLComm.Size() > 1 {
		var out *buffer.Buffer
		if isRoot {
			out = rbuf
		}
		if large {
			coll.ReduceChain(p, hy.LLComm, a, acc, out, hy.RootNodeIndex, mvapich2ReduceChainSeg, 0)
		} else {
			coll.ReduceBinomial(p, hy.LLComm, a, acc, out, hy.RootNodeIndex, 0)
		}
	}
}

// Allgather: leader-based three-step scheme — gather into leaders, ring
// exchange of node blocks among leaders, shared-memory broadcast of the full
// result. The leader's memory bus is the hot spot at high core counts,
// which is exactly what Figure 5 penalizes it for.
func (m *MVAPICH2Module) Allgather(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer) {
	hy := hier.Build(p, c, 0)
	lcomm := hy.LComm
	block := sbuf.Len()

	// Layout requirement: the three-step scheme assembles each node's
	// contributions as one block, which matches rbuf's comm-rank layout
	// only when every node hosts a contiguous, equal-size rank range
	// (by-core binding with full nodes). Otherwise fall back to a flat
	// ring: this is the "topology-unaware" penalty Figure 6(b) shows for
	// MVAPICH2-style designs.
	if !c.UniformBlocks() {
		coll.AllgatherRing(p, c, sbuf, rbuf, nil, true)
		return
	}

	myBase := c.Rank(p) - lcomm.Rank(p) // comm rank of my node's first rank
	nodeBlock := rbuf.Slice(int64(myBase)*block, block*int64(lcomm.Size()))
	// Step 1: gather into the leader's section of rbuf (leader's rbuf is
	// the live one; non-leaders gather into a scratch view shared via the
	// leader — modeled by smGatherIntra writing the leader's buffer).
	smGatherIntra(p, lcomm, sbuf, nodeBlock)

	// Step 2: leaders exchange node blocks over a ring.
	if hy.IsLeader && hy.LLComm.Size() > 1 {
		coll.AllgatherRing(p, hy.LLComm, nodeBlock, rbuf, nil, true)
	}

	// Step 3: leaders fan the full result out locally.
	smBcastIntra(p, lcomm, rbuf)
}
