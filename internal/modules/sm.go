package modules

import (
	"hierknem/internal/buffer"
	"hierknem/internal/coll"
	"hierknem/internal/mpi"
	"hierknem/internal/shm"
	"hierknem/internal/topology"
)

// smShare is a blackboard record describing a buffer sitting in a shared
// segment: who owns it and which NUMA socket it lives on.
type smShare struct {
	buf  *buffer.Buffer
	sock *topology.Socket
}

// The sm* helpers below are the shared intra-node stretches of every
// classic two-level personality (hierarch, MVAPICH2): blackboard posts,
// intra-node barriers and shared-segment copies among the ranks of one node.
// Every participant, the leader included, runs the whole helper as a small
// stretch when the message fits the fabric bypass (mpi.SmallIntraNode).

// smBcastIntra is the legacy shared-memory intra-node broadcast: the leader
// (lcomm rank 0) copies the whole message into the shared segment
// (copy-in, charged to the leader), then every non-leader copies it out
// (copy-out, concurrent). The leader is busy for the full copy-in and blocked
// until the slowest copy-out finishes — the serialization HierKNEM removes.
func smBcastIntra(p *mpi.Proc, lcomm *mpi.Comm, buf *buffer.Buffer) {
	if lcomm.Size() <= 1 {
		return
	}
	p.BeginSmallStretch(lcomm, buf.Len())
	key := mpi.BBKey{Op: "smbcast", Seq: lcomm.Seq(p)}
	m := p.World().Machine
	if lcomm.Rank(p) == 0 {
		shm.Copy(p.DES(), m, p.Core(), p.Core().Socket, p.Core().Socket, buf.Len(), buf.ID())
		lcomm.BBPost(key, smShare{buf: buf, sock: p.Core().Socket})
		lcomm.Barrier(p) // release readers
		lcomm.Barrier(p) // wait for readers to finish
		lcomm.BBClear(key)
	} else {
		lcomm.Barrier(p)
		sh := lcomm.BBWait(p, key).(smShare)
		shm.CopyBuffer(p.DES(), m, p.Core(), sh.sock, p.Core().Socket, sh.buf, buf)
		lcomm.Barrier(p)
	}
	p.EndSmallStretch()
}

// smReduceIntra is the legacy shared-memory intra-node reduction: every
// non-leader copies its contribution into the shared segment, then the
// leader folds the contributions in sequentially — (k-1) reductions on the
// leader's core, the hot spot the paper's Figure 4 discussion blames.
// The reduced result lands in acc (leader only); acc must already contain
// the leader's own contribution.
func smReduceIntra(p *mpi.Proc, lcomm *mpi.Comm, a coll.ReduceArgs, sbuf, acc *buffer.Buffer) {
	smFanIn(p, lcomm, "smreduce", sbuf, func(_ int, sh smShare) {
		p.ReduceLocal(a.Op, a.Dtype, acc, sh.buf)
	})
}

// smGatherIntra gathers every member's block into the leader's rbuf
// (rank-order layout within the node group): members copy-in, the leader
// copies each block out sequentially.
func smGatherIntra(p *mpi.Proc, lcomm *mpi.Comm, sbuf, rbuf *buffer.Buffer) {
	block := sbuf.Len()
	if lcomm.Rank(p) == 0 {
		rbuf.Slice(0, block).CopyFrom(sbuf)
	}
	m := p.World().Machine
	smFanIn(p, lcomm, "smgather", sbuf, func(r int, sh smShare) {
		dst := rbuf.Slice(int64(r)*block, block)
		shm.CopyBuffer(p.DES(), m, p.Core(), sh.sock, p.Core().Socket, sh.buf, dst)
	})
}

// smFanIn is the copy-in fan-in under smReduceIntra and smGatherIntra:
// every non-leader copies sbuf into the shared segment and posts it under
// op; after the barrier that says all are posted, the leader (lcomm rank 0)
// runs take on each member's post in rank order and clears it, and a last
// barrier releases the members.
func smFanIn(p *mpi.Proc, lcomm *mpi.Comm, op string, sbuf *buffer.Buffer, take func(r int, sh smShare)) {
	if lcomm.Size() <= 1 {
		return
	}
	p.BeginSmallStretch(lcomm, sbuf.Len())
	seq := lcomm.Seq(p)
	if me := lcomm.Rank(p); me != 0 {
		shm.Copy(p.DES(), p.World().Machine, p.Core(), p.Core().Socket, p.Core().Socket, sbuf.Len(), sbuf.ID())
		lcomm.BBPost(mpi.BBKey{Op: op, Seq: seq, Rank: me}, smShare{buf: sbuf, sock: p.Core().Socket})
		lcomm.Barrier(p) // contributions ready
		lcomm.Barrier(p) // leader done
	} else {
		lcomm.Barrier(p)
		for r := 1; r < lcomm.Size(); r++ {
			key := mpi.BBKey{Op: op, Seq: seq, Rank: r}
			take(r, lcomm.BBWait(p, key).(smShare))
			lcomm.BBClear(key)
		}
		lcomm.Barrier(p)
	}
	p.EndSmallStretch()
}
