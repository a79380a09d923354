package coll

import (
	"hierknem/internal/buffer"
	"hierknem/internal/mpi"
)

// ReduceArgs bundles the invariant reduction parameters.
type ReduceArgs struct {
	Op    buffer.Op
	Dtype buffer.Datatype
}

// ReduceDefectMin is the message/segment size from which the modeled Open
// MPI reduction defect applies (calibrated to the paper's section IV-E
// profile and Figure 4(b) crossover).
const ReduceDefectMin = 64 << 10

// ReduceBinomial reduces up a binomial tree: log2(P) rounds, partial results
// combined pairwise toward the root.
//
// perHop is an extra per-message sender CPU cost, modelling software stacks
// whose reduction path pays a per-send penalty (the Open MPI-on-InfiniBand
// defect the paper profiles in section IV-E); 0 for quirk-free stacks. The
// penalty sits in the large-message RDMA pipeline protocol: the paper's
// Figure 4(b) shows it from 64 KB upward (HierKNEM "clearly dominates"
// 2-32 KB), so messages below ReduceDefectMin are exempt.
func ReduceBinomial(p *mpi.Proc, c *mpi.Comm, a ReduceArgs, sbuf, rbuf *buffer.Buffer, root int, perHop float64) {
	if sbuf.Len() < ReduceDefectMin {
		perHop = 0
	}
	me := c.Rank(p)
	size := c.Size()
	v := vrank(me, root, size)

	// acc holds my partial result.
	var acc *buffer.Buffer
	if v == 0 {
		acc = rbuf
	} else {
		acc = Like(sbuf, sbuf.Len())
	}
	acc.CopyFrom(sbuf)

	tmp := Like(sbuf, sbuf.Len())
	mask := 1
	for mask < size {
		if v&mask != 0 {
			parent := unvrank(v^mask, root, size)
			if perHop > 0 {
				p.Compute(perHop)
			}
			p.Send(c, acc, parent, collTag)
			return
		}
		child := v | mask
		if child < size {
			p.Recv(c, tmp, unvrank(child, root, size), collTag)
			p.ReduceLocal(a.Op, a.Dtype, acc, tmp)
		}
		mask <<= 1
	}
}

// ReduceChain pipelines segments along the chain ... -> root: each rank
// receives a partial segment from its successor, folds in its own
// contribution, and forwards toward the root. Segment i+1 can be inbound
// while segment i is being reduced, hiding arithmetic behind transfers.
// perHop is charged per forwarded segment, as in ReduceBinomial; segments
// below ReduceDefectMin are exempt.
func ReduceChain(p *mpi.Proc, c *mpi.Comm, a ReduceArgs, sbuf, rbuf *buffer.Buffer, root int, segSize int64, perHop float64) {
	if segSize > 0 && segSize < ReduceDefectMin {
		perHop = 0
	}
	me := c.Rank(p)
	size := c.Size()
	if size == 1 {
		rbuf.CopyFrom(sbuf)
		return
	}
	if segSize <= 0 {
		segSize = sbuf.Len()
	}
	nseg := mpi.CeilDiv(sbuf.Len(), segSize)
	if nseg == 0 {
		nseg = 1
	}
	v := vrank(me, root, size)
	// Chain: v=size-1 originates, data flows to v=0 (the root).
	fromPeer := v + 1 // my upstream in virtual ranks
	toPeer := v - 1

	var acc *buffer.Buffer
	if v == 0 {
		acc = rbuf
		acc.CopyFrom(sbuf)
	} else {
		acc = Like(sbuf, sbuf.Len())
		acc.CopyFrom(sbuf)
	}
	tmp := Like(sbuf, segSize)
	// At most two sends in flight: the window drops its oldest entry by
	// copying down, so it never outgrows its stack array.
	var window [3]*mpi.Request
	pending := window[:0]
	for i := int64(0); i < nseg; i++ {
		off, n := mpi.SegmentBounds(sbuf.Len(), segSize, i)
		accSeg := acc.Slice(off, n)
		if v != size-1 {
			tseg := tmp.Slice(0, n)
			p.Recv(c, tseg, unvrank(fromPeer, root, size), ChainTag(i))
			p.ReduceLocal(a.Op, a.Dtype, accSeg, tseg)
		}
		if v != 0 {
			if perHop > 0 {
				p.Compute(perHop)
			}
			pending = append(pending, p.Isend(c, accSeg, unvrank(toPeer, root, size), ChainTag(i)))
			if len(pending) > 2 {
				p.Wait(pending[0])
				pending = pending[:copy(pending, pending[1:])]
			}
		}
	}
	p.WaitAll(pending...)
}

// ChainTag is the tag of segment i's messages in ReduceChain. A caller
// that runs one member's part of the chain itself tags its messages with
// it.
func ChainTag(i int64) int { return collTag + int(i) }

// ReduceRabenseifner implements the reduce-scatter + binomial-gather scheme
// for large messages on power-of-two communicators, falling back to
// ReduceBinomial otherwise. Each rank ends the first phase owning the fully
// reduced 1/P slice of the buffer; the gather funnels slices to the root.
func ReduceRabenseifner(p *mpi.Proc, c *mpi.Comm, a ReduceArgs, sbuf, rbuf *buffer.Buffer, root int) {
	size := c.Size()
	if size&(size-1) != 0 || size == 1 || sbuf.Len() < int64(size) {
		ReduceBinomial(p, c, a, sbuf, rbuf, root, 0)
		return
	}
	me := c.Rank(p)
	v := vrank(me, root, size)
	total := sbuf.Len()

	acc := Like(sbuf, total)
	acc.CopyFrom(sbuf)
	tmp := Like(sbuf, total)

	// Recursive halving reduce-scatter: after log2(P) steps, rank v owns
	// the reduced range [lo, lo+n). Splits stay element-aligned.
	es := a.Dtype.Size()
	lo, n := int64(0), total
	for mask := size / 2; mask >= 1; mask /= 2 {
		peerV := v ^ mask
		peer := unvrank(peerV, root, size)
		half := (n / 2 / es) * es
		var sendLo, sendN, keepLo, keepN int64
		if v&mask == 0 {
			// Keep lower half, send upper.
			sendLo, sendN = lo+half, n-half
			keepLo, keepN = lo, half
		} else {
			sendLo, sendN = lo, half
			keepLo, keepN = lo+half, n-half
		}
		p.SendRecv(c, acc.Slice(sendLo, sendN), peer, collTag,
			tmp.Slice(keepLo, keepN), peer, collTag)
		p.ReduceLocal(a.Op, a.Dtype, acc.Slice(keepLo, keepN), tmp.Slice(keepLo, keepN))
		lo, n = keepLo, keepN
	}

	// Gather the owned slices to the root. (The classic scheme uses a
	// binomial gatherv; a direct gatherv moves the same byte volume into
	// the root's link and keeps ownership bookkeeping simple.)
	if v != 0 {
		p.Send(c, acc.Slice(lo, n), unvrank(0, root, size), collTag+1)
		return
	}
	rbuf.Slice(lo, n).CopyFrom(acc.Slice(lo, n))
	for r := 1; r < size; r++ {
		rLo, rN := ownedRange(total, es, size, r)
		p.Recv(c, rbuf.Slice(rLo, rN), unvrank(r, root, size), collTag+1)
	}
}

// ownedRange reproduces the recursive-halving ownership of rank v with
// element-aligned splits of width es.
func ownedRange(total, es int64, size, v int) (int64, int64) {
	lo, n := int64(0), total
	for mask := size / 2; mask >= 1; mask /= 2 {
		half := (n / 2 / es) * es
		if v&mask == 0 {
			n = half
		} else {
			lo, n = lo+half, n-half
		}
	}
	return lo, n
}
