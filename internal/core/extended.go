package core

import (
	"hierknem/internal/buffer"
	"hierknem/internal/coll"
	"hierknem/internal/hier"
	"hierknem/internal/knem"
	"hierknem/internal/mpi"
)

// Extension operations: the paper evaluates Bcast, Reduce and Allgather;
// a production HierKNEM would also ship Scatter, Gather and Allreduce built
// from the same ingredients — leader hierarchy, KNEM offload, and
// topology-derived layouts.

// Scatter distributes root's buffer hierarchically: node blocks travel to
// leaders over a binomial tree, then every non-leader pulls its own block
// with a one-sided KNEM get while leaders are already done. Irregular
// layouts fall back to the flat binomial scatter.
func (m *Module) Scatter(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer, root int) {
	if c.Size() == 1 {
		rbuf.CopyFrom(sbuf.Slice(0, rbuf.Len()))
		return
	}
	if !c.UniformBlocks() {
		coll.ScatterBinomial(p, c, sbuf, rbuf, root)
		return
	}
	var scratch hier.Hierarchy
	hy := m.hierarchy(p, c, root, &scratch)
	lcomm := hy.LComm
	block := rbuf.Len()
	nodeBytes := block * int64(lcomm.Size())
	key := mpi.BBKey{Op: "hkscatter", Seq: lcomm.Seq(p)}

	// Position of this rank within its node's contiguous comm-rank block.
	// (lcomm rank order is reshuffled by root promotion, so derive the
	// block slot from the comm rank, which UniformBlocks guarantees.)
	pos := int64(c.Rank(p) % lcomm.Size())

	var staging *buffer.Buffer
	if hy.IsLeader {
		// Inter-node phase: binomial scatter of node blocks over llcomm.
		staging = coll.Like(rbuf, nodeBytes)
		if hy.LLComm.Size() > 1 {
			var nodeSrc *buffer.Buffer
			if c.Rank(p) == root {
				nodeSrc = sbuf
			}
			coll.ScatterBinomial(p, hy.LLComm, nodeSrc, staging, hy.RootNodeIndex)
		} else {
			staging.CopyFrom(sbuf)
		}
		rbuf.CopyFrom(staging.Slice(pos*block, block))
	}
	// Intra-node phase: the leader publishes the staging block and every
	// non-leader pulls its own. Non-leaders enter it at once and park on
	// node-local state until the leader, done with its inter-node scatter,
	// publishes the cookie.
	fanOut(p, hy, key, staging, pos*block, rbuf)
}

// Gather is Scatter's mirror: non-leaders push their blocks into the
// leader's staging buffer with one-sided KNEM puts, then leaders gather node
// blocks to the root over a binomial tree.
func (m *Module) Gather(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer, root int) {
	if c.Size() == 1 {
		rbuf.Slice(0, sbuf.Len()).CopyFrom(sbuf)
		return
	}
	if !c.UniformBlocks() {
		coll.GatherBinomial(p, c, sbuf, rbuf, root)
		return
	}
	var scratch hier.Hierarchy
	hy := m.hierarchy(p, c, root, &scratch)
	lcomm := hy.LComm
	block := sbuf.Len()
	nodeBytes := block * int64(lcomm.Size())
	key := mpi.BBKey{Op: "hkgather", Seq: lcomm.Seq(p)}
	pos := int64(c.Rank(p) % lcomm.Size())

	// The intra-node push phase runs as a small stretch (mpi.SmallIntraNode)
	// when per-rank blocks fit the fabric bypass; the leader closes it
	// before its inter-node gather.
	p.BeginSmallStretch(lcomm, block)
	if hy.IsLeader {
		staging := coll.Like(sbuf, nodeBytes)
		sh := publish(p, lcomm, key, staging, knem.RightWrite)
		staging.Slice(pos*block, block).CopyFrom(sbuf)
		lcomm.Barrier(p) // wait for all pushes
		sh.withdraw(p, lcomm, key)
		p.EndSmallStretch()

		if hy.LLComm.Size() > 1 {
			var nodeDst *buffer.Buffer
			if c.Rank(p) == root {
				nodeDst = rbuf
			}
			coll.GatherBinomial(p, hy.LLComm, staging, nodeDst, hy.RootNodeIndex)
		} else if c.Rank(p) == root {
			rbuf.CopyFrom(staging)
		}
		return
	}
	lookup(p, lcomm, key).put(p, pos*block, sbuf)
	lcomm.Barrier(p)
	p.EndSmallStretch()
}

// Allreduce runs three phases: a binomial intra-node reduction to each
// leader (over KNEM-backed point-to-point), an inter-node allreduce among
// leaders (recursive doubling for small messages, reduce-scatter +
// allgather ring above 64 KiB), and a one-sided intra-node fan-out where
// every non-leader pulls the result concurrently.
func (m *Module) Allreduce(p *mpi.Proc, c *mpi.Comm, a coll.ReduceArgs, sbuf, rbuf *buffer.Buffer) {
	if c.Size() == 1 {
		rbuf.CopyFrom(sbuf)
		return
	}
	var scratch hier.Hierarchy
	hy := m.hierarchy(p, c, 0, &scratch)
	lcomm := hy.LComm
	key := mpi.BBKey{Op: "hkallreduce", Seq: lcomm.Seq(p)}

	// Phase 1: intra-node reduction to the leader (lcomm rank 0).
	var acc *buffer.Buffer
	if hy.IsLeader {
		acc = rbuf
	}
	reduceToLeader(p, hy, a, sbuf, acc)

	if hy.IsLeader && hy.LLComm.Size() > 1 {
		// Phase 2: inter-node allreduce among leaders, while the
		// non-leaders park on node-local blackboard state.
		tmp := coll.Like(sbuf, sbuf.Len())
		tmp.CopyFrom(acc)
		if sbuf.Len() < 64<<10 {
			coll.AllreduceRecursiveDoubling(p, hy.LLComm, a, tmp, acc)
		} else {
			coll.AllreduceRing(p, hy.LLComm, a, tmp, acc, nil)
		}
	}
	// Phase 3: the leader publishes; non-leaders pull.
	if lcomm.Size() > 1 {
		fanOut(p, hy, key, acc, 0, rbuf)
	}
}
