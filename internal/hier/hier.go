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
// collectives (Allgather).
func Build(p *mpi.Proc, c *mpi.Comm, root int) Hierarchy {
	me := c.Rank(p)
	myNode := p.Core().NodeID

	// Intra-node communicator: color by node id. Key orders members by
	// comm rank, except the root which is forced to the front of its node.
	key := me + 1
	if me == root {
		key = 0
	}
	lcomm := c.Split(p, myNode, key)

	leader := lcomm.Rank(p) == 0
	// Leaders' communicator, ordered by node id (color 0, key = node id
	// keeps determinism; mpi.Split orders by key then rank).
	color := mpi.Undefined
	if leader {
		color = 0
	}
	llcomm := c.Split(p, color, myNode)

	// Node indexing is a per-communicator fact read from c's placement
	// index (identical at all ranks, no communication needed).
	return Hierarchy{
		Comm:          c,
		LComm:         lcomm,
		LLComm:        llcomm,
		IsLeader:      leader,
		NodeIndex:     c.NodeIndex(me),
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
	lrank := h.LComm.Rank(p)
	color := 0
	if lrank == 0 || h.LComm.Size() < 2 {
		color = mpi.Undefined
	}
	h.newComm = h.LComm.Split(p, color, lrank)
	h.newCommSet = true
	return h.newComm
}
