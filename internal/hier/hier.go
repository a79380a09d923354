// Package hier builds the two-level communicator structure shared by every
// leader-based hierarchical collective in this repository: an intra-node
// communicator (lcomm) grouping the ranks of each physical node, and an
// inter-node communicator (llcomm) containing one leader per node.
//
// The leader of a node is its lowest comm rank, except on the node hosting a
// designated root rank, where the root itself is promoted to leader so
// rooted collectives (Bcast, Reduce) need no extra intra-node hop.
package hier

import (
	"hierknem/internal/des"
	"hierknem/internal/mpi"
)

// Hierarchy is one process's view of the two-level structure. The Comm
// pointers are shared across member processes; the scalar fields are
// per-process. It is a value: a per-call hierarchy lives on the caller's
// stack, a cached one in its cache's backing array, and neither costs a
// heap object of its own.
type Hierarchy struct {
	Comm   *mpi.Comm // the original communicator
	LComm  *mpi.Comm // ranks of my node (always non-nil, may be size 1)
	LLComm *mpi.Comm // leaders; nil on non-leader processes

	IsLeader  bool
	NodeIndex int // dense index of my node among occupied nodes
	NodeCount int // number of occupied nodes

	// RootNodeIndex is the dense node index of the root passed to Build —
	// also the root's rank within LLComm, since Build promotes the root
	// to leader and LLComm is ordered by node id.
	RootNodeIndex int

	newComm    *mpi.Comm
	newCommSet bool
}

// Build creates the hierarchy for p on comm c, promoting root's node leader
// to root. All members of c must call Build with the same root (it is a
// collective operation: it performs two Splits). Pass root = 0 for unrooted
// collectives (Allgather). It runs BuildStep as one stepped wait.
func Build(p *mpi.Proc, c *mpi.Comm, root int) Hierarchy { return BuildAfter(p, c, root, 0) }

// BuildAfter is Build after a charge of d (none for 0), such as the cost of
// detecting the topology, in the same stepped wait.
func BuildAfter(p *mpi.Proc, c *mpi.Comm, root int, d float64) Hierarchy {
	p.DES().Steps(BuildStep(p, c, root, d))
	return Built(p, c, root)
}

// BuildStep arms BuildAfter(p, c, root, d) as a sub-step and returns it: a
// caller's Stepper, running as p's stepped wait, steps it until Done and
// then reads the hierarchy with Built. It is p's stepped-wait record
// (mpi.Comm.SplitLeadersStep), so arming it allocates nothing.
//
// The node communicator is c split by node id; its key orders members by
// comm rank, except the root, which is forced to the front of its node.
// The leaders' communicator holds every node communicator's rank 0,
// ordered by node id (mpi orders by key, then rank).
func BuildStep(p *mpi.Proc, c *mpi.Comm, root int, d float64) des.Stepper {
	me := c.Rank(p)
	key := me + 1
	if me == root {
		key = 0
	}
	node := p.Core().NodeID
	return c.SplitLeadersStep(p, d, node, key, node)
}

// Built returns the hierarchy the BuildStep(p, c, root, ...) that last
// reported Done built. Node indexing is a per-communicator fact read from
// c's placement index (identical at all ranks, no communication needed).
func Built(p *mpi.Proc, c *mpi.Comm, root int) Hierarchy {
	lcomm, llcomm := p.SplitResult()
	return Hierarchy{
		Comm:          c,
		LComm:         lcomm,
		LLComm:        llcomm,
		IsLeader:      llcomm != nil,
		NodeIndex:     c.NodeIndex(c.Rank(p)),
		NodeCount:     c.NodeSpan(),
		RootNodeIndex: c.NodeIndex(root),
	}
}

// NewComm returns the communicator of all non-leader ranks on this node plus
// the second leader — the "new_comm" of the HierKNEM Reduce (Algorithm 2).
// Collective over lcomm on first use; cached on the (per-process) Hierarchy
// afterwards, so cached hierarchies split only once. On nodes with fewer
// than two ranks it returns nil for every caller.
func (h *Hierarchy) NewComm(p *mpi.Proc) *mpi.Comm {
	if h.newCommSet {
		return h.newComm
	}
	p.DES().Steps(NewCommStep(p, h.LComm))
	h.newComm, _ = p.SplitResult()
	h.newCommSet = true
	return h.newComm
}

// NewCommStep arms the split behind NewComm on the node communicator lcomm
// as a sub-step, as BuildStep does for Build; once it has reported Done,
// p.SplitResult returns new_comm.
func NewCommStep(p *mpi.Proc, lcomm *mpi.Comm) des.Stepper {
	lrank := lcomm.Rank(p)
	color := 0
	if lrank == 0 || lcomm.Size() < 2 {
		color = mpi.Undefined
	}
	return lcomm.SplitStep(p, color, lrank)
}
