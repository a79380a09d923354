package modules

import (
	"hierknem/internal/buffer"
	"hierknem/internal/coll"
	"hierknem/internal/mpi"
)

// Extension operations (Scatter, Gather, Allreduce) for the baseline
// personalities, following each library's published algorithm selection.

// --- Tuned ---

// Scatter uses a binomial tree (Open MPI's default beyond tiny comms).
func (t *TunedModule) Scatter(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer, root int) {
	if c.Size() < 4 {
		coll.ScatterLinear(p, c, sbuf, rbuf, root)
		return
	}
	coll.ScatterBinomial(p, c, sbuf, rbuf, root)
}

// Gather uses a binomial tree.
func (t *TunedModule) Gather(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer, root int) {
	if c.Size() < 4 {
		coll.GatherLinear(p, c, sbuf, rbuf, root)
		return
	}
	coll.GatherBinomial(p, c, sbuf, rbuf, root)
}

// Allreduce uses recursive doubling for small messages and the
// reduce-scatter + allgather ring for large ones (rank order, topology
// oblivious).
func (t *TunedModule) Allreduce(p *mpi.Proc, c *mpi.Comm, a coll.ReduceArgs, sbuf, rbuf *buffer.Buffer) {
	if sbuf.Len() < 64<<10 {
		coll.AllreduceRecursiveDoubling(p, c, a, sbuf, rbuf)
		return
	}
	coll.AllreduceRing(p, c, a, sbuf, rbuf, nil)
}

// --- Hierarch ---

// Scatter: Open MPI's hierarch implements no Scatter; fall back to Tuned.
func (h *HierarchModule) Scatter(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer, root int) {
	h.fallback.Scatter(p, c, sbuf, rbuf, root)
}

// Gather: likewise a fallback.
func (h *HierarchModule) Gather(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer, root int) {
	h.fallback.Gather(p, c, sbuf, rbuf, root)
}

// Allreduce composes the hierarchical Reduce with the hierarchical Bcast —
// the two non-overlapping phases the component is built from.
func (h *HierarchModule) Allreduce(p *mpi.Proc, c *mpi.Comm, a coll.ReduceArgs, sbuf, rbuf *buffer.Buffer) {
	h.Reduce(p, c, a, sbuf, rbuf, 0)
	h.Bcast(p, c, rbuf, 0)
}

// --- MPICH2 ---

// Scatter uses the binomial tree (MPIR_Scatter).
func (m *MPICH2Module) Scatter(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer, root int) {
	coll.ScatterBinomial(p, c, sbuf, rbuf, root)
}

// Gather uses the binomial tree (MPIR_Gather).
func (m *MPICH2Module) Gather(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer, root int) {
	coll.GatherBinomial(p, c, sbuf, rbuf, root)
}

// Allreduce follows MPIR_Allreduce: recursive doubling below 2 KiB,
// Rabenseifner's reduce-scatter + allgather above.
func (m *MPICH2Module) Allreduce(p *mpi.Proc, c *mpi.Comm, a coll.ReduceArgs, sbuf, rbuf *buffer.Buffer) {
	if sbuf.Len() < 2<<10 {
		coll.AllreduceRecursiveDoubling(p, c, a, sbuf, rbuf)
		return
	}
	coll.AllreduceRing(p, c, a, sbuf, rbuf, nil)
}

// --- MVAPICH2 ---

// Scatter: two-level — the root scatters node blocks to leaders, leaders
// fan out through the shared segment.
func (m *MVAPICH2Module) Scatter(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer, root int) {
	// MVAPICH2's SMP-aware scatter needs the same contiguous layout as
	// its allgather; fall back to the flat binomial otherwise.
	coll.ScatterBinomial(p, c, sbuf, rbuf, root)
}

// Gather uses the flat binomial (MVAPICH2 1.7 had no SMP-aware gather).
func (m *MVAPICH2Module) Gather(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer, root int) {
	coll.GatherBinomial(p, c, sbuf, rbuf, root)
}

// Allreduce: shared-memory intra-node reduce to leaders, inter-node
// allreduce among leaders, shared-memory broadcast — the classic SMP-aware
// design, phases sequential.
func (m *MVAPICH2Module) Allreduce(p *mpi.Proc, c *mpi.Comm, a coll.ReduceArgs, sbuf, rbuf *buffer.Buffer) {
	m.Reduce(p, c, a, sbuf, rbuf, 0)
	m.Bcast(p, c, rbuf, 0)
}
