package core

import (
	"hierknem/internal/buffer"
	"hierknem/internal/des"
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
	seg := segmentSize("BcastPipeline", m.Opt.BcastPipeline, buf.Len())
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
		parent, children := leaderTree(p, hy, nseg)

		// Prepost the first segment's receive (Algorithm 1, step 11),
		// then keep one receive ahead of the pipeline (step 13).
		var recvs []*mpi.Request
		if !onRootNode {
			recvs = make([]*mpi.Request, nseg)
			off, n := mpi.SegmentBounds(buf.Len(), seg, 0)
			recvs[0] = p.Irecv(ll, buf.Slice(off, n), parent, hkTag)
		}
		var pending []*mpi.Request
		for i := int64(0); i < nseg; i++ {
			off, n := mpi.SegmentBounds(buf.Len(), seg, i)
			s := buf.Slice(off, n)
			if !onRootNode {
				if i+1 < nseg {
					noff, nn := mpi.SegmentBounds(buf.Len(), seg, i+1)
					recvs[i+1] = p.Irecv(ll, buf.Slice(noff, nn), parent, hkTag+int(i+1))
				}
				p.Wait(recvs[i]) // step 14
			}
			for _, ch := range children {
				pending = append(pending, p.Isend(ll, s, ch, hkTag+int(i))) // step 15/21
			}
			if !onRootNode {
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
	t := bcastTailOf(p)
	t.lcomm, t.buf, t.seg, t.nseg = lcomm, buf, seg, int32(nseg)
	if onRootNode {
		// The root holds the whole message already: fetch it in one
		// one-sided copy (step 38).
		t.seg, t.nseg, t.root = buf.Len(), 1, true
	}
	t.phase, t.sub = tailLookup, lookupStep(p, lcomm, key)
	p.DES().Steps(t)
}

// bcastTail is a non-leader's part of Bcast (steps 36-46) as one stepped
// wait (des.Proc.Steps): the cookie lookup; then, for each segment, the
// lcomm barrier that brings the leader's notification (step 42) and the
// one-sided get of the segment; then the final barrier (step 45). On the
// root's node, where the message is whole from the start, it is the
// lookup, one get of the whole buffer and the barrier. The barriers and the
// lookup are mpi's sub-steps and the get is a knem.Copy, all driven from
// here, so the rank is switched into once per Bcast rather than about
// twice per segment.
type bcastTail struct {
	p     *mpi.Proc
	lcomm *mpi.Comm
	buf   *buffer.Buffer
	seg   int64       // segment size
	sub   des.Stepper // the barrier or lookup under way
	sh    share
	cp    knem.Copy // the get under way
	i     int32     // the segment under way
	nseg  int32
	phase uint8
	root  bool // on the root's node: no notification barriers
}

const (
	tailLookup uint8 = iota // the cookie lookup
	tailNotify              // the barrier before the get of segment i
	tailGet                 // the get of segment i
	tailFinal               // the final barrier
)

// bcastTailOf returns p's bcastTail record.
func bcastTailOf(p *mpi.Proc) *bcastTail {
	w := p.World()
	ts := tailsOf(w)
	if ts.bcast == nil {
		ts.bcast = make([]bcastTail, w.Size())
		for r := range ts.bcast {
			ts.bcast[r].p = w.Proc(r)
		}
	}
	return &ts.bcast[p.Rank()]
}

// Step advances the sequence (des.Stepper).
func (t *bcastTail) Step(dp *des.Proc) des.Wait {
	for {
		var w des.Wait
		if t.phase == tailGet {
			w = t.cp.Step(dp)
		} else {
			w = t.sub.Step(dp)
		}
		if w != des.Done {
			return w
		}
		switch t.phase {
		case tailLookup:
			t.sh = t.p.LookedUp().(share)
			if t.root {
				return t.startGet(dp)
			}
			t.barrier(tailNotify)
		case tailNotify:
			return t.startGet(dp)
		case tailGet:
			if t.i++; t.i < t.nseg {
				t.barrier(tailNotify)
			} else {
				t.barrier(tailFinal)
			}
		default:
			*t = bcastTail{p: t.p}
			return des.Done
		}
	}
}

// barrier arms the lcomm barrier of phase.
func (t *bcastTail) barrier(phase uint8) {
	t.phase, t.sub = phase, t.lcomm.BarrierStep(t.p)
}

// startGet starts the get of segment i and returns its first wait.
func (t *bcastTail) startGet(dp *des.Proc) des.Wait {
	off, n := mpi.SegmentBounds(t.buf.Len(), t.seg, int64(t.i))
	cp, w, err := t.sh.dev.StartGet(dp, t.p.Core(), t.sh.ck, off, t.buf, off, n)
	if err != nil {
		panic(err)
	}
	t.cp, t.phase = cp, tailGet
	return w
}

// leaderTree returns the parent and children, as llcomm ranks, of this
// node's leader in the inter-node spanning tree (spanningTree) rooted at the
// root's node. The root's node leader, which receives from no one, gets
// itself as parent.
func leaderTree(p *mpi.Proc, hy *hier.Hierarchy, nseg int64) (parent int, children []int) {
	size, root := hy.LLComm.Size(), hy.RootNodeIndex
	parent, children = spanningTree((hy.LLComm.Rank(p)-root+size)%size, size, nseg)
	for i, v := range children {
		children[i] = (root + v) % size
	}
	return (root + parent) % size, children
}

// bcastSmall is the single-segment Bcast. The general path interleaves
// inter-node forwarding with lcomm barriers; with one segment that
// interleaving buys nothing, so the leader first completes all inter-node
// forwarding, then the whole node — leader and non-leaders together — runs
// the KNEM linear fan-out as a small stretch. One barrier fences the
// fetches before deregistration (BBWait already orders each fetch after
// the post).
func (m *Module) bcastSmall(p *mpi.Proc, hy *hier.Hierarchy, buf *buffer.Buffer, key mpi.BBKey) {
	lcomm := hy.LComm
	if hy.IsLeader && hy.LLComm.Size() > 1 {
		parent, children := leaderTree(p, hy, 1)
		if hy.NodeIndex != hy.RootNodeIndex {
			p.Recv(hy.LLComm, buf, parent, hkTag)
		}
		var pending []*mpi.Request
		for _, ch := range children {
			pending = append(pending, p.Isend(hy.LLComm, buf, ch, hkTag))
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
