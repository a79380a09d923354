package core

import (
	"hierknem/internal/buffer"
	"hierknem/internal/hier"
	"hierknem/internal/knem"
	"hierknem/internal/mpi"
)

// chainMinSegs is the pipeline depth from which the inter-node spanning
// tree degenerates into a chain: with enough segments in flight the chain's
// linear fan-in is amortized and every link streams at full bandwidth, while
// for few segments the binomial tree's logarithmic depth wins.
const chainMinSegs = 8

// spanningTree returns the parent and children of virtual rank v in the
// inter-node spanning tree: a binomial tree for shallow pipelines, a chain
// for deep ones.
func spanningTree(v, size int, nseg int64) (parent int, children []int) {
	if size <= 1 {
		return 0, nil
	}
	if nseg >= chainMinSegs {
		if v+1 < size {
			children = []int{v + 1}
		}
		if v > 0 {
			parent = v - 1
		}
		return parent, children
	}
	// Binomial tree.
	if v != 0 {
		mask := 1
		for v&mask == 0 {
			mask <<= 1
		}
		parent = v ^ mask
	}
	mask := 1
	for mask < size {
		if v&mask != 0 {
			break
		}
		if c := v | mask; c != v && c < size {
			children = append(children, c)
		}
		mask <<= 1
	}
	return parent, children
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
func (m *Module) Bcast(p *mpi.Proc, c *mpi.Comm, buf *buffer.Buffer, root int) {
	if c.Size() == 1 {
		return
	}
	var scratch hier.Hierarchy
	hy := m.hierarchy(p, c, root, &scratch) // build (or reuse) the topology map
	seg := m.Opt.BcastPipeline(buf.Len())
	nseg := segCount(buf.Len(), seg)

	lcomm := hy.LComm
	key := mpi.BBKey{Op: "hkbcast", Seq: lcomm.Seq(p)}
	onRootNode := hy.NodeIndex == hy.RootNodeIndex

	if nseg == 1 && p.SmallIntraNode(lcomm, buf.Len()) {
		// Single-segment messages have no cross-segment overlap to preserve,
		// so the small path reorders to inter-node-then-intra-node and runs
		// the intra-node fan-out as a small stretch.
		m.bcastSmall(p, hy, buf, key)
		return
	}

	if hy.IsLeader {
		// Register rbuf with the KNEM device; share the cookie with the
		// node's non-leaders (steps 2-3).
		sh := publish(p, lcomm, key, buf, knem.RightRead)

		ll := hy.LLComm
		llSize := ll.Size()
		me := ll.Rank(p)
		rootLL := hy.RootNodeIndex
		v := (me - rootLL + llSize) % llSize // virtual rank in the tree
		parentV, childrenV := spanningTree(v, llSize, nseg)
		parent := (rootLL + parentV) % llSize
		children := make([]int, len(childrenV))
		for i, cv := range childrenV {
			children[i] = (rootLL + cv) % llSize
		}

		// Prepost the first segment's receive (Algorithm 1, step 11),
		// then keep one receive ahead of the pipeline (step 13).
		var recvs []*mpi.Request
		if v != 0 {
			recvs = make([]*mpi.Request, nseg)
			off, n := mpi.SegmentBounds(buf.Len(), seg, 0)
			recvs[0] = p.Irecv(ll, buf.Slice(off, n), parent, hkTag)
		}
		var pending []*mpi.Request
		for i := int64(0); i < nseg; i++ {
			off, n := mpi.SegmentBounds(buf.Len(), seg, i)
			s := buf.Slice(off, n)
			if v != 0 {
				if i+1 < nseg {
					noff, nn := mpi.SegmentBounds(buf.Len(), seg, i+1)
					recvs[i+1] = p.Irecv(ll, buf.Slice(noff, nn), parent, hkTag+int(i+1))
				}
				p.Wait(recvs[i]) // step 14
			}
			for _, ch := range children {
				pending = append(pending, p.Isend(ll, s, ch, hkTag+int(i))) // step 15/21
			}
			if v != 0 && !onRootNode {
				// Notify non-leaders that segment i is available
				// (steps 16/22/29).
				lcomm.Barrier(p)
			}
			// Bound in-flight sends to keep pipeline semantics.
			for len(pending) > 2*len(children) {
				p.Wait(pending[0])
				pending = pending[1:]
			}
		}
		p.WaitAll(pending...)
		lcomm.Barrier(p) // final synchronization (step 32 / 45)
		sh.withdraw(p, lcomm, key)
		return
	}

	// Non-leader (steps 36-46).
	sh := lookup(p, lcomm, key)
	if onRootNode {
		// The root holds the whole message already: fetch it in one
		// one-sided copy (step 38).
		sh.get(p, 0, buf)
		lcomm.Barrier(p)
		return
	}
	for i := int64(0); i < nseg; i++ {
		lcomm.Barrier(p) // wait for the leader's notification (step 42)
		off, n := mpi.SegmentBounds(buf.Len(), seg, i)
		sh.get(p, off, buf.Slice(off, n))
	}
	lcomm.Barrier(p) // step 45
}

// bcastSmall is the single-segment Bcast. The general path interleaves
// inter-node forwarding with lcomm barriers; with one segment that
// interleaving buys nothing, so the leader first completes all inter-node
// forwarding, then the whole node — leader and non-leaders together — runs
// the KNEM linear fan-out as a small stretch.
func (m *Module) bcastSmall(p *mpi.Proc, hy *hier.Hierarchy, buf *buffer.Buffer, key mpi.BBKey) {
	lcomm := hy.LComm
	if hy.IsLeader {
		ll := hy.LLComm
		if llSize := ll.Size(); llSize > 1 {
			me := ll.Rank(p)
			rootLL := hy.RootNodeIndex
			v := (me - rootLL + llSize) % llSize
			parentV, childrenV := spanningTree(v, llSize, 1)
			if v != 0 {
				p.Recv(ll, buf, (rootLL+parentV)%llSize, hkTag)
			}
			var pending []*mpi.Request
			for _, cv := range childrenV {
				pending = append(pending, p.Isend(ll, buf, (rootLL+cv)%llSize, hkTag))
			}
			p.WaitAll(pending...)
		}
	}

	// Intra-node fan-out: the leader registers the message and
	// publishes the cookie; every non-leader fetches it whole with a
	// one-sided get. One barrier fences the fetches before deregistration
	// (BBWait already orders each fetch after the post).
	p.BeginSmallStretch()
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
