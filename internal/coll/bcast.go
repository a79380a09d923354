package coll

import (
	"hierknem/internal/buffer"
	"hierknem/internal/mpi"
)

// BcastBinomial runs the classic binomial-tree broadcast: log2(P) rounds,
// each holder doubling the set of ranks that have the data.
func BcastBinomial(p *mpi.Proc, c *mpi.Comm, buf *buffer.Buffer, root int) {
	me := c.Rank(p)
	size := c.Size()
	v := vrank(me, root, size)

	// Receive once from the parent (unless root).
	if v != 0 {
		mask := 1
		for v&mask == 0 {
			mask <<= 1
		}
		parent := unvrank(v^mask, root, size)
		p.Recv(c, buf, parent, collTag)
	}
	// Forward to children.
	mask := 1
	for mask < size && v&(mask-1) == 0 {
		if v&mask != 0 {
			break
		}
		child := v | mask
		if child < size {
			p.Send(c, buf, unvrank(child, root, size), collTag)
		}
		mask <<= 1
	}
}

// BcastChain pipelines the message along the rank-ordered chain
// root -> root+1 -> ... in segments of segSize bytes: after the fan-in fills
// the pipe, every link streams concurrently at full bandwidth.
func BcastChain(p *mpi.Proc, c *mpi.Comm, buf *buffer.Buffer, root int, segSize int64) {
	me := c.Rank(p)
	size := c.Size()
	if size == 1 {
		return
	}
	if segSize <= 0 {
		segSize = buf.Len()
	}
	nseg := mpi.CeilDiv(buf.Len(), segSize)
	if nseg == 0 {
		nseg = 1
	}
	v := vrank(me, root, size)
	prev := unvrank(v-1, root, size)
	next := unvrank(v+1, root, size)
	last := v == size-1

	// Prepost the receive for the next segment before waiting on the
	// current one, so rendezvous transfers start without a handshake round
	// trip (real pipelined implementations prepost exactly like this).
	var recvReqs []*mpi.Request
	if v != 0 {
		recvReqs = make([]*mpi.Request, nseg)
		off, n := mpi.SegmentBounds(buf.Len(), segSize, 0)
		recvReqs[0] = p.Irecv(c, buf.Slice(off, n), prev, collTag)
	}
	var window [3]*mpi.Request
	sendReqs := window[:0]
	for i := int64(0); i < nseg; i++ {
		off, n := mpi.SegmentBounds(buf.Len(), segSize, i)
		seg := buf.Slice(off, n)
		if v != 0 {
			if i+1 < nseg {
				noff, nn := mpi.SegmentBounds(buf.Len(), segSize, i+1)
				recvReqs[i+1] = p.Irecv(c, buf.Slice(noff, nn), prev, collTag+int(i+1))
			}
			p.Wait(recvReqs[i])
		}
		if !last {
			sendReqs = append(sendReqs, p.Isend(c, seg, next, collTag+int(i)))
			// Keep at most two sends in flight so the pipeline stays a
			// pipeline rather than an unbounded burst; dropping the oldest
			// by copying down keeps the window in its stack array.
			if len(sendReqs) > 2 {
				p.Wait(sendReqs[0])
				sendReqs = sendReqs[:copy(sendReqs, sendReqs[1:])]
			}
		}
	}
	p.WaitAll(sendReqs...)
}

// BcastBinaryTree pipelines segments down a balanced binary tree (heap
// numbering in virtual-rank space). Compared to the chain it halves the
// steady-state bandwidth (every inner node forwards each segment twice) but
// has logarithmic fan-in, which wins at mid message sizes — Open MPI Tuned's
// mid-size regime.
func BcastBinaryTree(p *mpi.Proc, c *mpi.Comm, buf *buffer.Buffer, root int, segSize int64) {
	size := c.Size()
	if size == 1 {
		return
	}
	me := c.Rank(p)
	v := vrank(me, root, size)
	if segSize <= 0 {
		segSize = buf.Len()
	}
	nseg := mpi.CeilDiv(buf.Len(), segSize)
	if nseg == 0 {
		nseg = 1
	}
	parent := unvrank((v-1)/2, root, size)
	children := make([]int, 0, 2)
	for _, cv := range []int{2*v + 1, 2*v + 2} {
		if cv < size {
			children = append(children, unvrank(cv, root, size))
		}
	}
	var pending []*mpi.Request
	for i := int64(0); i < nseg; i++ {
		off, n := mpi.SegmentBounds(buf.Len(), segSize, i)
		seg := buf.Slice(off, n)
		if v != 0 {
			p.Recv(c, seg, parent, collTag+int(i))
		}
		for _, ch := range children {
			pending = append(pending, p.Isend(c, seg, ch, collTag+int(i)))
		}
		if len(pending) > 4 {
			p.WaitAll(pending[:2]...)
			pending = pending[2:]
		}
	}
	p.WaitAll(pending...)
}

func emptyLike() *buffer.Buffer { return buffer.NewPhantom(0) }

// BcastScatterAllgather implements MPICH's large-message broadcast: scatter
// the buffer over a binomial tree, then ring-allgather the pieces (Thakur &
// Gropp). Block b ends up everywhere after P-1 ring steps.
func BcastScatterAllgather(p *mpi.Proc, c *mpi.Comm, buf *buffer.Buffer, root int) {
	size := c.Size()
	if size == 1 {
		return
	}
	me := c.Rank(p)
	v := vrank(me, root, size)
	total := buf.Len()
	block := mpi.CeilDiv(total, int64(size))

	// --- Scatter phase (binomial): rank v owns block v afterwards. ---
	// curLo/curN track the contiguous block range this rank currently holds.
	curLo, curN := int64(0), int64(0)
	if v == 0 {
		curLo, curN = 0, total
	} else {
		mask := 1
		for v&mask == 0 {
			mask <<= 1
		}
		parent := v ^ mask
		// The range a rank receives: [v*block, min(end of parent's span)).
		span := int64(mask) * block // size of my subtree's span
		curLo = int64(v) * block
		curN = span
		if curLo+curN > total {
			curN = total - curLo
		}
		if curN < 0 {
			curN = 0
		}
		if curN > 0 {
			p.Recv(c, buf.Slice(curLo, curN), unvrank(parent, root, size), collTag)
		} else {
			p.Recv(c, emptyLike(), unvrank(parent, root, size), collTag)
		}
	}
	// Send upper halves of my span to children.
	mask := 1
	for mask < size {
		if v&mask != 0 {
			break
		}
		child := v | mask
		if child < size {
			childLo := int64(child) * block
			childN := int64(mask) * block
			if childLo+childN > total {
				childN = total - childLo
			}
			if childN < 0 {
				childN = 0
			}
			if childN > 0 {
				p.Send(c, buf.Slice(childLo, childN), unvrank(child, root, size), collTag)
				curN = childLo - curLo
			} else {
				p.Send(c, emptyLike(), unvrank(child, root, size), collTag)
			}
		}
		mask <<= 1
	}

	// --- Ring allgather of the P blocks (in virtual-rank space). ---
	blockAt := func(i int) (int64, int64) {
		lo := int64(i) * block
		if lo >= total {
			return total, 0
		}
		n := block
		if lo+n > total {
			n = total - lo
		}
		return lo, n
	}
	right := unvrank((v+1)%size, root, size)
	left := unvrank((v-1+size)%size, root, size)
	for step := 0; step < size-1; step++ {
		sendIdx := (v - step + size) % size
		recvIdx := (v - step - 1 + size) % size
		sLo, sN := blockAt(sendIdx)
		rLo, rN := blockAt(recvIdx)
		sb := buf.Slice(sLo, sN)
		rb := buf.Slice(rLo, rN)
		p.SendRecv(c, sb, right, collTag+1+step, rb, left, collTag+1+step)
	}
}
