package coll

import (
	"hierknem/internal/buffer"
	"hierknem/internal/mpi"
)

// ScatterLinear has the root send each rank its block directly. sbuf is
// significant at root only (size*block bytes, comm-rank order); every rank
// receives its block in rbuf.
func ScatterLinear(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer, root int) {
	me := c.Rank(p)
	block := rbuf.Len()
	if me == root {
		reqs := make([]*mpi.Request, 0, c.Size()-1)
		for r := 0; r < c.Size(); r++ {
			if r == root {
				rbuf.CopyFrom(sbuf.Slice(int64(r)*block, block))
				continue
			}
			reqs = append(reqs, p.Isend(c, sbuf.Slice(int64(r)*block, block), r, collTag+20))
		}
		p.WaitAll(reqs...)
		return
	}
	p.Recv(c, rbuf, root, collTag+20)
}

// ScatterBinomial scatters down a binomial tree: the root sends half the
// blocks to its first child, a quarter to the next, and so on; inner ranks
// forward the sub-ranges they received. Total traffic is size*log(P) blocks
// on the root's links instead of size*(P-1) sends.
func ScatterBinomial(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer, root int) {
	size := c.Size()
	me := c.Rank(p)
	block := rbuf.Len()
	v := vrank(me, root, size)

	// staging holds the contiguous virtual-rank range [v, v+span) of
	// blocks this rank is responsible for.
	span := 1
	for span < size {
		span *= 2
	}
	var staging *buffer.Buffer
	if v == 0 {
		// Root re-orders blocks into virtual-rank order once.
		staging = Like(sbuf, int64(size)*block)
		for r := 0; r < size; r++ {
			staging.Slice(int64(vrank(r, root, size))*block, block).
				CopyFrom(sbuf.Slice(int64(r)*block, block))
		}
	} else {
		// Receive my sub-range from the parent.
		mask := 1
		for v&mask == 0 {
			mask <<= 1
		}
		parent := unvrank(v^mask, root, size)
		n := mask
		if v+n > size {
			n = size - v
		}
		staging = Like(rbuf, int64(n)*block)
		p.Recv(c, staging, parent, collTag+21)
		span = mask
	}

	// Forward upper halves to children.
	mask := span / 2
	if v == 0 {
		mask = 1
		for mask*2 < size {
			mask *= 2
		}
	}
	for ; mask >= 1; mask /= 2 {
		if v&mask != 0 {
			break
		}
		child := v | mask
		if child >= size || child == v {
			continue
		}
		n := mask
		if child+n > size {
			n = size - child
		}
		lo := int64(child-v) * block
		p.Send(c, staging.Slice(lo, int64(n)*block), unvrank(child, root, size), collTag+21)
	}
	rbuf.CopyFrom(staging.Slice(0, block))
}

// GatherBinomial gathers blocks up a binomial tree (the mirror of
// ScatterBinomial). rbuf is significant at root (size*block, comm-rank
// order).
func GatherBinomial(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer, root int) {
	size := c.Size()
	me := c.Rank(p)
	block := sbuf.Len()
	v := vrank(me, root, size)

	// staging accumulates the virtual-rank range [v, v+span).
	span := 1
	maxSpan := 1
	for maxSpan < size {
		maxSpan *= 2
	}
	staging := Like(sbuf, int64(maxSpan)*block)
	staging.Slice(0, block).CopyFrom(sbuf)

	mask := 1
	for mask < size {
		if v&mask != 0 {
			// Send my accumulated range to the parent and stop.
			parent := unvrank(v^mask, root, size)
			n := span
			if v+n > size {
				n = size - v
			}
			p.Send(c, staging.Slice(0, int64(n)*block), parent, collTag+22)
			return
		}
		child := v | mask
		if child < size {
			n := mask
			if child+n > size {
				n = size - child
			}
			p.Recv(c, staging.Slice(int64(mask)*block, int64(n)*block), unvrank(child, root, size), collTag+22)
			span = mask * 2
		}
		mask <<= 1
	}
	// Root: staging is in virtual-rank order; restore comm-rank order.
	for r := 0; r < size; r++ {
		rbuf.Slice(int64(r)*block, block).
			CopyFrom(staging.Slice(int64(vrank(r, root, size))*block, block))
	}
}

// AllreduceRecursiveDoubling performs the classic log2(P) exchange-and-fold
// allreduce for power-of-two communicators, falling back to reduce+bcast
// otherwise. Every rank ends with the full reduction in rbuf.
func AllreduceRecursiveDoubling(p *mpi.Proc, c *mpi.Comm, a ReduceArgs, sbuf, rbuf *buffer.Buffer) {
	size := c.Size()
	me := c.Rank(p)
	rbuf.CopyFrom(sbuf)
	if size == 1 {
		return
	}
	if size&(size-1) != 0 {
		ReduceBinomial(p, c, a, sbuf, rbuf, 0, 0)
		BcastBinomial(p, c, rbuf, 0)
		return
	}
	tmp := Like(sbuf, sbuf.Len())
	for mask := 1; mask < size; mask <<= 1 {
		peer := me ^ mask
		r := p.Irecv(c, tmp, peer, collTag+23)
		s := p.Isend(c, rbuf, peer, collTag+23)
		p.Wait(r)
		p.Wait(s)
		p.ReduceLocal(a.Op, a.Dtype, rbuf, tmp)
	}
}

// AllreduceRing implements the bandwidth-optimal reduce-scatter + allgather
// ring (Rabenseifner's large-message allreduce as shipped by MPICH): 2(P-1)
// steps moving 2*S*(P-1)/P bytes per rank.
func AllreduceRing(p *mpi.Proc, c *mpi.Comm, a ReduceArgs, sbuf, rbuf *buffer.Buffer, order []int) {
	size := c.Size()
	me := c.Rank(p)
	rbuf.CopyFrom(sbuf)
	if size == 1 {
		return
	}
	total := sbuf.Len()
	es := a.Dtype.Size()
	// Element-aligned chunk boundaries.
	bounds := make([]int64, size+1)
	for i := 0; i <= size; i++ {
		bounds[i] = (total * int64(i) / int64(size)) / es * es
	}
	bounds[size] = total
	chunk := func(i int) (int64, int64) {
		i = ((i % size) + size) % size
		return bounds[i], bounds[i+1] - bounds[i]
	}

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

	maxChunk := int64(0)
	for i := 0; i < size; i++ {
		if _, n := chunk(i); n > maxChunk {
			maxChunk = n
		}
	}
	tmp := Like(sbuf, maxChunk)

	// Phase 1: reduce-scatter around the ring. After step s, this rank
	// holds the partial sum of chunk (pos-s-1) over s+2 contributors; after
	// P-1 steps it owns the fully reduced chunk (pos+1).
	for s := 0; s < size-1; s++ {
		sendIdx := pos - s
		recvIdx := pos - s - 1
		sLo, sN := chunk(sendIdx)
		rLo, rN := chunk(recvIdx)
		tseg := tmp.Slice(0, rN)
		r := p.Irecv(c, tseg, left, collTag+24+s)
		sr := p.Isend(c, rbuf.Slice(sLo, sN), right, collTag+24+s)
		p.Wait(r)
		p.Wait(sr)
		p.ReduceLocal(a.Op, a.Dtype, rbuf.Slice(rLo, rN), tseg)
	}
	// Phase 2: allgather of the reduced chunks around the same ring.
	for s := 0; s < size-1; s++ {
		sendIdx := pos + 1 - s
		recvIdx := pos - s
		sLo, sN := chunk(sendIdx)
		rLo, rN := chunk(recvIdx)
		r := p.Irecv(c, rbuf.Slice(rLo, rN), left, collTag+500+s)
		sr := p.Isend(c, rbuf.Slice(sLo, sN), right, collTag+500+s)
		p.Wait(r)
		p.Wait(sr)
	}
}
