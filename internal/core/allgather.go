package core

import (
	"hierknem/internal/buffer"
	"hierknem/internal/coll"
	"hierknem/internal/hier"
	"hierknem/internal/knem"
	"hierknem/internal/mpi"
)

// agShare is the 1st leader's blackboard record for the leader-based
// Allgather: its rbuf cookie, writable (step 1) and readable (step 3).
type agShare struct {
	dev *knem.Device
	ck  knem.Cookie
}

// Allgather implements section III-D: a leader-based algorithm for small
// nodes and a topology-aware ring for large NUMA nodes, selected by the
// processes-per-node count (or forced via Options.ForceAllgather, as in the
// Figure 2 study).
func (m *Module) Allgather(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer) {
	if c.Size() == 1 {
		rbuf.CopyFrom(sbuf)
		return
	}
	mode := m.Opt.ForceAllgather
	if mode == "" {
		if c.MaxPPN() <= m.Opt.AllgatherLeaderMaxPPN {
			mode = "leader"
		} else {
			mode = "ring"
		}
	}
	if mode == "leader" && c.UniformBlocks() {
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
	spec := &p.World().Machine.Spec
	key := mpi.BBKey{Op: "hkag", Seq: lcomm.Seq(p)}

	nodeBytes := block * int64(lcomm.Size())
	nodes := hy.NodeCount
	me := hy.NodeIndex
	// Ring-arrival schedule: after inter-node step s, the block of node
	// recvIdx(s) is present in the local leader's rbuf. Known to every
	// local rank without communication.
	recvIdx := func(s int) int { return (me - s - 1 + 2*nodes) % nodes }

	// Step 1 — every local rank pushing its block into the leader's rbuf —
	// is a small stretch when blocks fit the fabric bypass. Steps 2-3
	// interleave the leader's inter-node ring with the non-leaders' pulls of
	// whole node blocks, so they are not.
	small := p.SmallIntraNode(lcomm, block)

	if hy.IsLeader {
		if small {
			p.BeginSmallStretch()
		}
		dev := p.Knem()
		p.Compute(spec.ShmLatency)
		ck := dev.Register(rbuf, p.Core(), knem.RightRead|knem.RightWrite)
		lcomm.BBPost(p, key, agShare{dev: dev, ck: ck})
		// My own block goes straight into place.
		rbuf.Slice(int64(c.Rank(p))*block, block).CopyFrom(sbuf)
		lcomm.Barrier(p) // step 1 complete: all local blocks pushed
		if small {
			p.EndSmallStretch()
		}

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
		p.Compute(spec.ShmLatency)
		if err := dev.Deregister(ck); err != nil {
			panic(err)
		}
		lcomm.BBClear(key)
		return
	}

	// Non-leader.
	if small {
		p.BeginSmallStretch()
	}
	p.Compute(spec.ShmLatency)
	sh := lcomm.BBWait(p, key).(agShare)
	// Step 1: push my block into the leader's rbuf (one-sided, offloaded).
	if err := sh.dev.Put(p.DES(), p.Core(), sh.ck, int64(c.Rank(p))*block, sbuf); err != nil {
		panic(err)
	}
	lcomm.Barrier(p)
	if small {
		p.EndSmallStretch()
	}
	// My own node's aggregate can be pulled right away; remote blocks as
	// they arrive (one-sided, overlapping the leader's ring).
	myNodeOff := int64(me) * nodeBytes
	if err := sh.dev.Get(p.DES(), p.Core(), sh.ck, myNodeOff, rbuf.Slice(myNodeOff, nodeBytes)); err != nil {
		panic(err)
	}
	for s := 0; s < nodes-1; s++ {
		lcomm.Barrier(p) // wait for block recvIdx(s)
		off := int64(recvIdx(s)) * nodeBytes
		if err := sh.dev.Get(p.DES(), p.Core(), sh.ck, off, rbuf.Slice(off, nodeBytes)); err != nil {
			panic(err)
		}
	}
	lcomm.Barrier(p)
}
