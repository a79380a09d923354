// Package coll implements the classic collective-communication algorithms
// the modules ship, over the simulated MPI runtime: binomial-tree,
// pipelined-chain, split-binary and scatter-allgather broadcasts; binomial,
// pipelined-chain and Rabenseifner reductions; ring and recursive-doubling
// allgathers; linear and binomial scatters and gathers; recursive-doubling
// and ring allreduces.
//
// These are the building blocks of the baseline "personalities"
// (internal/modules) the paper compares against — Open MPI Tuned, Open MPI
// Hierarch, MPICH2 and MVAPICH2 — and of the inter-node layer reused by
// HierKNEM itself (internal/core).
//
// All algorithms are SPMD: every member of the communicator calls the same
// function with the same arguments (modulo root-relative buffers), exactly
// like MPI collectives.
package coll

import (
	"hierknem/internal/buffer"
)

// collTag is the base of the tag space reserved for collective internals.
const collTag = 1 << 22

// Like allocates a scratch buffer matching b's realness: real buffers get
// real scratch (so data correctness is testable end to end), phantom buffers
// get phantom scratch.
func Like(b *buffer.Buffer, n int64) *buffer.Buffer {
	if b != nil && !b.Phantom() {
		return buffer.NewReal(make([]byte, n))
	}
	return buffer.NewPhantom(n)
}

// vrank computes the rank relative to root (MPI's classic trick so tree
// algorithms can treat root as rank 0).
func vrank(rank, root, size int) int { return (rank - root + size) % size }

// unvrank inverts vrank.
func unvrank(v, root, size int) int { return (v + root) % size }
