package coll

import (
	"hierknem/internal/buffer"
	"hierknem/internal/mpi"
)

// AllgatherRing exchanges blocks around a logical ring defined by order (a
// permutation of comm ranks; nil means rank order). order is only read:
// callers hand every rank the same slice. After P-1 steps every rank holds
// all P blocks. rbuf is laid out in comm-rank order with each rank's
// contribution at rank*blockSize; sbuf is the caller's block.
//
// postRecvFirst selects full-duplex behavior: when true each step posts the
// receive before the send and both directions progress concurrently. When
// false the step models a transport whose single-threaded progress engine
// cannot drive both directions of a link efficiently (the TCP stacks of the
// paper's era): both operations are still posted — real rings do not
// deadlock — but each step with a remote neighbor pays an extra
// progress-engine penalty of one message time, halving effective cross-node
// throughput (the ~50% Tuned Allgather loss of section IV-F).
func AllgatherRing(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer, order []int, postRecvFirst bool) {
	size := c.Size()
	me := c.Rank(p)
	block := sbuf.Len()
	if rbuf.Len() != block*int64(size) {
		panic("coll: allgather rbuf size must be size*sbuf")
	}
	// Local copy of my own contribution.
	rbuf.Slice(int64(me)*block, block).CopyFrom(sbuf)
	if size == 1 {
		return
	}

	// Position in the ring.
	ring := order
	if ring == nil {
		ring = make([]int, size)
		for i := range ring {
			ring[i] = i
		}
	}
	posOf := make([]int, size)
	for i, r := range ring {
		posOf[r] = i
	}
	pos := posOf[me]
	right := ring[(pos+1)%size]
	left := ring[(pos-1+size)%size]

	// Progress-engine penalty for the serialized personality: one extra
	// message time per step touching a remote neighbor.
	var serialPenalty float64
	if !postRecvFirst {
		myNode := p.Core().NodeID
		remote := c.Proc(right).Core().NodeID != myNode ||
			c.Proc(left).Core().NodeID != myNode
		if remote {
			serialPenalty = float64(block) / p.World().Machine.Spec.NetBandwidth
		}
	}

	// At step s I send the block that originated at ring position
	// (pos-s) and receive the one from position (pos-s-1).
	for s := 0; s < size-1; s++ {
		sendOwner := ring[(pos-s+size)%size]
		recvOwner := ring[(pos-s-1+2*size)%size]
		sb := rbuf.Slice(int64(sendOwner)*block, block)
		rb := rbuf.Slice(int64(recvOwner)*block, block)
		tag := collTag + s
		r := p.Irecv(c, rb, left, tag)
		sReq := p.Isend(c, sb, right, tag)
		p.Wait(r)
		p.Wait(sReq)
		if serialPenalty > 0 {
			p.Compute(serialPenalty)
		}
	}
}

// AllgatherRecursiveDoubling implements the log2(P)-step doubling exchange
// for power-of-two communicators (falls back to the ring otherwise). At step
// k, ranks at distance 2^k exchange everything gathered so far.
func AllgatherRecursiveDoubling(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer) {
	size := c.Size()
	if size&(size-1) != 0 {
		AllgatherRing(p, c, sbuf, rbuf, nil, true)
		return
	}
	me := c.Rank(p)
	block := sbuf.Len()
	if rbuf.Len() != block*int64(size) {
		panic("coll: allgather rbuf size must be size*sbuf")
	}
	rbuf.Slice(int64(me)*block, block).CopyFrom(sbuf)
	// My gathered range grows by doubling; it is always the aligned chunk
	// containing me of width "have" ranks.
	have := 1
	for mask := 1; mask < size; mask <<= 1 {
		peer := me ^ mask
		myLo := int64(me&^(mask-1)) * block
		peerLo := int64(peer&^(mask-1)) * block
		n := int64(have) * block
		tag := collTag + have
		r := p.Irecv(c, rbuf.Slice(peerLo, n), peer, tag)
		s := p.Isend(c, rbuf.Slice(myLo, n), peer, tag)
		p.Wait(r)
		p.Wait(s)
		have *= 2
	}
}

// GatherLinear collects every rank's block at root (rank-order layout).
func GatherLinear(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer, root int) {
	me := c.Rank(p)
	block := sbuf.Len()
	if me != root {
		p.Send(c, sbuf, root, collTag)
		return
	}
	if rbuf.Len() != block*int64(c.Size()) {
		panic("coll: gather rbuf size must be size*sbuf")
	}
	rbuf.Slice(int64(root)*block, block).CopyFrom(sbuf)
	reqs := make([]*mpi.Request, 0, c.Size()-1)
	for r := 0; r < c.Size(); r++ {
		if r != root {
			reqs = append(reqs, p.Irecv(c, rbuf.Slice(int64(r)*block, block), r, collTag))
		}
	}
	p.WaitAll(reqs...)
}
