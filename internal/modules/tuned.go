package modules

import (
	"hierknem/internal/buffer"
	"hierknem/internal/coll"
	"hierknem/internal/mpi"
)

// TunedModule approximates Open MPI 1.5's "tuned" component: a fixed
// decision table keyed on message size and communicator size, with no
// knowledge of the physical topology.
type TunedModule struct {
	Q Quirks
}

// Tuned's decision thresholds (bytes) follow coll_tuned_decision_fixed's
// structure, with values rounded to this simulator's granularity.
const (
	tunedBcastBinomialMax  = 2 << 10   // below: whole-message binomial
	tunedBcastBinTreeMax   = 512 << 10 // below: segmented binary tree
	tunedBcastTreeSeg      = 32 << 10  // binary-tree segment size
	tunedBcastChainSeg     = 128 << 10 // chain pipeline segment size
	tunedReduceBinomialMax = 512 << 10 // below: whole-message binomial
	tunedReduceChainSeg    = 128 << 10 // chain segment size above it
	tunedAllgatherRDMax    = 80 << 10  // below (total bytes): recursive doubling
)

// Tuned returns the module with Open MPI 1.5-like defaults.
func Tuned(q Quirks) *TunedModule { return &TunedModule{Q: q} }

func (t *TunedModule) Name() string { return "tuned" }

// Bcast selects binomial, segmented binary tree, or pipelined chain by
// message size — over raw MPI ranks, oblivious to node boundaries.
func (t *TunedModule) Bcast(p *mpi.Proc, c *mpi.Comm, buf *buffer.Buffer, root int) {
	switch n := buf.Len(); {
	case n < tunedBcastBinomialMax || c.Size() < 4:
		coll.BcastBinomial(p, c, buf, root)
	case n < tunedBcastBinTreeMax:
		coll.BcastBinaryTree(p, c, buf, root, tunedBcastTreeSeg)
	default:
		coll.BcastChain(p, c, buf, root, tunedBcastChainSeg)
	}
}

// Reduce selects binomial or pipelined chain, both paying the stack's
// per-hop reduction quirk when configured.
func (t *TunedModule) Reduce(p *mpi.Proc, c *mpi.Comm, a coll.ReduceArgs, sbuf, rbuf *buffer.Buffer, root int) {
	if sbuf.Len() < tunedReduceBinomialMax || c.Size() < 4 {
		coll.ReduceBinomial(p, c, a, sbuf, rbuf, root, t.Q.ReducePerHop)
		return
	}
	coll.ReduceChain(p, c, a, sbuf, rbuf, root, tunedReduceChainSeg, t.Q.ReducePerHop)
}

// Allgather uses recursive doubling for small totals and the rank-ordered
// ring for large ones. The ring's duplex behavior follows the TCP quirk.
func (t *TunedModule) Allgather(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer) {
	if rbuf.Len() < tunedAllgatherRDMax {
		coll.AllgatherRecursiveDoubling(p, c, sbuf, rbuf)
		return
	}
	coll.AllgatherRing(p, c, sbuf, rbuf, nil, !t.Q.SerializedRing)
}
