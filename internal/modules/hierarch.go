package modules

import (
	"hierknem/internal/buffer"
	"hierknem/internal/coll"
	"hierknem/internal/hier"
	"hierknem/internal/mpi"
)

// HierarchModule models Open MPI's "hierarch" collective component: a
// classic two-level composition where the inter-node phase (among leaders)
// and the intra-node shared-memory phase run back to back with no overlap,
// and intra-node movement uses the copy-in/copy-out segment. It is the
// "less integrated" hierarchical design the paper contrasts HierKNEM with.
type HierarchModule struct {
	Q Quirks

	fallback *TunedModule // hierarch has no Allgather; Open MPI falls back
}

// Hierarch's inter-node (leader) layer thresholds (bytes), mirroring Open
// MPI 1.5: the layer reuses Tuned-style algorithms, tuned independently of
// the intra layer (that mismatch is the point).
const (
	hierarchBcastBinomialMax = 8 << 10
	hierarchBcastChainSeg    = 128 << 10
	hierarchReduceChainMin   = 512 << 10
	hierarchReduceChainSeg   = 128 << 10
)

// Hierarch returns the module with defaults mirroring Open MPI 1.5.
func Hierarch(q Quirks) *HierarchModule {
	return &HierarchModule{Q: q, fallback: Tuned(q)}
}

func (h *HierarchModule) Name() string { return "hierarch" }

// Bcast: leaders broadcast over the inter-node communicator (whole
// operation), then each leader fans the message out inside its node. The
// two phases are strictly sequential: T = T_inter + T_intra.
func (h *HierarchModule) Bcast(p *mpi.Proc, c *mpi.Comm, buf *buffer.Buffer, root int) {
	hy := hier.Build(p, c, root)
	if hy.IsLeader && hy.LLComm.Size() > 1 {
		if buf.Len() < hierarchBcastBinomialMax {
			coll.BcastBinomial(p, hy.LLComm, buf, hy.RootNodeIndex)
		} else {
			coll.BcastChain(p, hy.LLComm, buf, hy.RootNodeIndex, hierarchBcastChainSeg)
		}
	}
	smBcastIntra(p, hy.LComm, buf)
}

// Reduce: intra-node shared-memory reduction to each leader (the leader
// folds every local contribution in sequentially), then an inter-node
// reduction among leaders. Strictly sequential phases.
func (h *HierarchModule) Reduce(p *mpi.Proc, c *mpi.Comm, a coll.ReduceArgs, sbuf, rbuf *buffer.Buffer, root int) {
	hy := hier.Build(p, c, root)
	isRoot := c.Rank(p) == root

	var acc *buffer.Buffer
	if hy.IsLeader {
		if isRoot {
			acc = rbuf
		} else {
			acc = coll.Like(sbuf, sbuf.Len())
		}
		acc.CopyFrom(sbuf)
	}
	smReduceIntra(p, hy.LComm, a, sbuf, acc)
	if hy.IsLeader && hy.LLComm.Size() > 1 {
		var out *buffer.Buffer
		if isRoot {
			out = rbuf
			// inter-node phase reduces into a temp then writes rbuf to
			// avoid self-aliasing acc==rbuf in the algorithms; acc is
			// already rbuf here, and the algorithms accept that (sbuf is
			// read before rbuf is written per segment). Pass acc as sbuf.
		} else {
			out = nil
		}
		if sbuf.Len() >= hierarchReduceChainMin {
			coll.ReduceChain(p, hy.LLComm, a, acc, out, hy.RootNodeIndex, hierarchReduceChainSeg, h.Q.ReducePerHop)
		} else {
			coll.ReduceBinomial(p, hy.LLComm, a, acc, out, hy.RootNodeIndex, h.Q.ReducePerHop)
		}
	}
}

// Allgather is not implemented by the hierarch component (the paper omits
// it from Figure 5 for that reason); Open MPI falls back to Tuned.
func (h *HierarchModule) Allgather(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer) {
	h.fallback.Allgather(p, c, sbuf, rbuf)
}
