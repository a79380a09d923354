package core

import (
	"hierknem/internal/buffer"
	"hierknem/internal/coll"
	"hierknem/internal/hier"
	"hierknem/internal/knem"
	"hierknem/internal/mpi"
)

// chainMinSegs is the pipeline depth from which the inter-node spanning
// tree degenerates into a chain: with enough segments in flight the chain's
// linear fan-in is amortized and every link streams at full bandwidth, while
// for few segments the binomial tree's logarithmic depth wins.
const chainMinSegs = 8

// spanningTree returns the parent of virtual rank v in the inter-node
// spanning tree and its number of children (shape.link gives each): a
// binomial tree for shallow pipelines, a chain for deep ones.
func spanningTree(v, size int, nseg int64) (parent, nch int) {
	if nseg >= chainMinSegs {
		return max(v-1, 0), min(size-1-v, 1)
	}
	// Binomial tree: v's children are v+2^j below its lowest set bit.
	for m := 1; v&m == 0 && v+m < size; m <<= 1 {
		nch++
	}
	return v & (v - 1), nch
}

// Bcast implements Algorithm 1 of the paper.
//
// Leaders register the buffer with KNEM and forward pipeline segments along
// the inter-node spanning tree (a pipelined chain over the leader
// communicator); after forwarding each segment they synchronize with their
// node's non-leaders through an lcomm barrier, and the non-leaders fetch the
// segment with one-sided KNEM gets — overlapping intra-node distribution of
// segment i with inter-node forwarding of segment i+1. Non-leaders on the
// root's node fetch the whole message immediately (it is complete from the
// start).
//
// Degenerate layouts need no special code path: on a single node the
// spanning tree is empty and the algorithm is exactly the KNEM-collective
// linear broadcast; with one rank per node the lcomm barriers are no-ops and
// it is a pure inter-node pipelined tree.
//
// Uncached, the pipeline builds the topology map in the call's one stepped
// wait (build). A single small segment may take bcastSmall, which needs
// the node communicator to decide: it builds the map first, process-style.
func (m *Module) Bcast(p *mpi.Proc, c *mpi.Comm, buf *buffer.Buffer, root int) {
	if c.Size() == 1 {
		return
	}
	n := buf.Len()
	seg := segmentSize("BcastPipeline", m.Opt.BcastPipeline, n)
	small := segCount(n, seg) == 1 && p.SmallMessage(n)
	if !m.Opt.CacheTopology && !small {
		build(p, shape{role: bcastNonLeader, root: int32(root), n: n, seg: seg}, c, m.Opt.TopoDetectCost, buf, nil, coll.ReduceArgs{})
		return
	}
	var scratch hier.Hierarchy
	hy := m.hierarchy(p, c, root, &scratch) // build (or reuse) the topology map
	lcomm := hy.LComm
	key := mpi.BBKey{Op: "hkbcast", Seq: lcomm.Seq(p)}
	sh := bcastShape(hy.IsLeader, hy.NodeIndex, hy.NodeCount, hy.RootNodeIndex, n, seg)
	if small && p.SmallIntraNode(lcomm, n) {
		// Single-segment messages have no cross-segment overlap to preserve,
		// so the small path reorders to inter-node-then-intra-node and runs
		// the intra-node fan-out as a small stretch.
		m.bcastSmall(p, hy, &sh, buf, key)
		return
	}
	run(p, sh, lcomm, hy.LLComm, buf, nil, coll.ReduceArgs{}, key.Seq)
}

// bcastSmall is the single-segment Bcast. The general path interleaves
// inter-node forwarding with lcomm barriers; with one segment that
// interleaving buys nothing, so the leader first completes all inter-node
// forwarding, then the whole node — leader and non-leaders together — runs
// the KNEM linear fan-out as a small stretch. One barrier fences the
// fetches before deregistration (BBWait already orders each fetch after
// the post).
func (m *Module) bcastSmall(p *mpi.Proc, hy *hier.Hierarchy, sh *shape, buf *buffer.Buffer, key mpi.BBKey) {
	lcomm := hy.LComm
	if hy.IsLeader && sh.size > 1 {
		if !sh.rootNode {
			p.Recv(hy.LLComm, buf, sh.link(-1), hkTag)
		}
		var pending []*mpi.Request
		for j := int32(0); j < sh.nch; j++ {
			pending = append(pending, p.Isend(hy.LLComm, buf, sh.link(j), hkTag))
		}
		p.WaitAll(pending...)
	}

	p.BeginSmallStretch(lcomm, buf.Len())
	if hy.IsLeader {
		sh := publish(p, lcomm, key, buf, knem.RightRead)
		lcomm.Barrier(p) // fetches complete
		sh.withdraw(p, lcomm, key)
	} else {
		lookup(p, lcomm, key).get(p, 0, buf)
		lcomm.Barrier(p)
	}
	p.EndSmallStretch()
}
