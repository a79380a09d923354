package modules

import (
	"hierknem/internal/buffer"
	"hierknem/internal/coll"
	"hierknem/internal/mpi"
)

// MPICH2Module models MPICH2 1.4's flat collectives: the Thakur–Gropp
// algorithm selection with no topology awareness (multicore nodes treated as
// plain SMPs through the Nemesis/KNEM channel, which our mpi layer already
// models at the p2p level).
type MPICH2Module struct {
	Q Quirks
}

// MPICH2 1.4's algorithm switches (bytes).
const (
	mpich2BcastBinomialMax = 12 << 10  // below: always binomial
	mpich2BcastLongMin     = 512 << 10 // above: scatter + ring allgather
	mpich2ReduceSmallMax   = 2 << 10   // below: binomial; above: Rabenseifner
	mpich2AllgatherRDMax   = 80 << 10  // below (total): recursive doubling; above: ring
)

// MPICH2 returns the module with MPICH2 1.4 defaults.
func MPICH2(q Quirks) *MPICH2Module { return &MPICH2Module{Q: q} }

func (m *MPICH2Module) Name() string { return "mpich2" }

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Bcast follows MPIR_Bcast's decision tree: binomial below the medium
// threshold; scatter + allgather for medium sizes only on power-of-two
// communicators (binomial otherwise — the case that hits 768 ranks); and
// scatter + ring allgather for long messages on any size.
func (m *MPICH2Module) Bcast(p *mpi.Proc, c *mpi.Comm, buf *buffer.Buffer, root int) {
	n := buf.Len()
	switch {
	case n < mpich2BcastBinomialMax || c.Size() < 8:
		coll.BcastBinomial(p, c, buf, root)
	case n < mpich2BcastLongMin && !isPow2(c.Size()):
		coll.BcastBinomial(p, c, buf, root)
	default:
		coll.BcastScatterAllgather(p, c, buf, root)
	}
}

func (m *MPICH2Module) Reduce(p *mpi.Proc, c *mpi.Comm, a coll.ReduceArgs, sbuf, rbuf *buffer.Buffer, root int) {
	if sbuf.Len() < mpich2ReduceSmallMax {
		coll.ReduceBinomial(p, c, a, sbuf, rbuf, root, 0)
		return
	}
	coll.ReduceRabenseifner(p, c, a, sbuf, rbuf, root)
}

func (m *MPICH2Module) Allgather(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer) {
	if rbuf.Len() < mpich2AllgatherRDMax {
		coll.AllgatherRecursiveDoubling(p, c, sbuf, rbuf)
		return
	}
	coll.AllgatherRing(p, c, sbuf, rbuf, nil, !m.Q.SerializedRing)
}
