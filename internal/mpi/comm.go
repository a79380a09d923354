package mpi

import (
	"cmp"
	"fmt"
	"slices"
)

// Comm is a communicator: an ordered group of world ranks with a private
// matching context. One Comm object is shared by all member processes (the
// simulation lives in one address space); per-process state such as "my
// rank" is derived from the calling Proc.
type Comm struct {
	world *World
	ctx   int
	ranks []int // comm rank -> world rank

	// Rank index: the members' world ranks in ascending order and, at the
	// same position, their comm ranks (see lookup). It is sized by the
	// member count whatever the spread of the world ranks (a by-node node
	// communicator's members sit a node count apart).
	byWorld []int32
	commOf  []int32

	barrier barrierState
	splitOp *splitState

	// Placement index: what the binding says about this group of ranks,
	// computed once in newComm and only read afterwards. It is
	// node-granular (no per-rank table beyond the rank index), so the
	// sub-communicators every hier.Build call mints carry a few words each.
	nodeLo    int     // lowest node id hosting a member
	nodeDense []int32 // node id - nodeLo -> dense node index, -1 where no member lives
	nodeSpan  int     // number of distinct nodes
	maxPPN    int     // largest member count of one node
	uniform   bool    // see UniformBlocks

	physOrder []int // memoised by PhysicalOrder
	attr      any   // see Attr

	bb   map[BBKey]*bbEntry
	seqs []int // comm rank -> Seq calls so far
}

// newComm creates the communicator of the given world ranks (at least one).
func (w *World) newComm(ranks []int) *Comm {
	c := &Comm{world: w, ctx: w.nextCtx, ranks: ranks}
	w.nextCtx++
	lo, hi := w.procs[ranks[0]].core.NodeID, -1
	ascending, inOrder := true, true
	for i, r := range ranks {
		n := w.procs[r].core.NodeID
		ascending = ascending && n >= hi
		lo, hi = min(lo, n), max(hi, n)
		inOrder = inOrder && (i == 0 || r > ranks[i-1])
	}
	// One allocation backs all three tables: the two halves of the rank
	// index, then the node table over the node-id range.
	size := len(ranks)
	tables := make([]int32, 2*size+hi-lo+1)
	byWorld, commOf, dense := tables[:size:size], tables[size:2*size:2*size], tables[2*size:]
	for i := range commOf {
		commOf[i] = int32(i)
	}
	// World and node communicators come in order; sorting them anyway
	// would cost 40 % of newComm.
	if !inOrder {
		slices.SortFunc(commOf, func(a, b int32) int { return cmp.Compare(ranks[a], ranks[b]) })
	}
	for i, r := range commOf {
		byWorld[i] = int32(ranks[r])
	}
	c.byWorld, c.commOf = byWorld, commOf
	// Count members per node in place, then turn the counts into dense
	// indices: O(P + node range), no map.
	for _, r := range ranks {
		dense[w.procs[r].core.NodeID-lo]++
	}
	first, equal := int(dense[0]), true
	for i, n := range dense {
		if n == 0 {
			dense[i] = -1
			continue
		}
		equal = equal && int(n) == first
		c.maxPPN = max(c.maxPPN, int(n))
		dense[i] = int32(c.nodeSpan)
		c.nodeSpan++
	}
	c.nodeLo, c.nodeDense = lo, dense
	c.uniform = ascending && equal
	return c
}

// WorldComm returns the communicator containing every rank, creating it on
// first use.
func (w *World) WorldComm() *Comm {
	if len(w.procs) == 0 {
		panic("mpi: empty world")
	}
	if w.worldComm == nil {
		ranks := make([]int, len(w.procs))
		for i := range ranks {
			ranks[i] = i
		}
		w.worldComm = w.newComm(ranks)
	}
	return w.worldComm
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// Rank returns p's rank within c, or panics if p is not a member.
func (c *Comm) Rank(p *Proc) int {
	r := c.lookup(p.rank)
	if r < 0 {
		panic(fmt.Sprintf("mpi: world rank %d not in communicator", p.rank))
	}
	return r
}

// Member reports whether p belongs to c.
func (c *Comm) Member(p *Proc) bool { return c.lookup(p.rank) >= 0 }

// lookup returns the comm rank of world rank wr, or -1 for a non-member.
// When the members' world ranks are contiguous (every by-core
// communicator, whatever its comm-rank order) wr sits at offset
// wr - byWorld[0]; any other member set falls back to a binary search.
func (c *Comm) lookup(wr int) int {
	i := wr - int(c.byWorld[0])
	if uint(i) >= uint(len(c.byWorld)) || int(c.byWorld[i]) != wr {
		var ok bool
		if i, ok = slices.BinarySearch(c.byWorld, int32(wr)); !ok {
			return -1
		}
	}
	return int(c.commOf[i])
}

// WorldRank translates a comm rank to a world rank.
func (c *Comm) WorldRank(rank int) int {
	if rank < 0 || rank >= len(c.ranks) {
		panic(fmt.Sprintf("mpi: rank %d out of range for communicator of size %d", rank, len(c.ranks)))
	}
	return c.ranks[rank]
}

// Proc returns the process at a comm rank.
func (c *Comm) Proc(rank int) *Proc { return c.world.procs[c.WorldRank(rank)] }

// IntraNode reports whether all members live on one node.
func (c *Comm) IntraNode() bool { return c.nodeSpan <= 1 }

// NodeSpan returns the number of distinct nodes hosting members.
func (c *Comm) NodeSpan() int { return c.nodeSpan }

// NodeIndex returns the dense index, among the nodes hosting members in
// ascending node-id order, of the node hosting comm rank rank.
func (c *Comm) NodeIndex(rank int) int {
	return int(c.nodeDense[c.Proc(rank).core.NodeID-c.nodeLo])
}

// MaxPPN returns the largest number of members hosted by one node.
func (c *Comm) MaxPPN() int { return c.maxPPN }

// UniformBlocks reports whether the members form contiguous equal-length
// runs in ascending node order — the layout leader-based node-block
// arithmetic requires (node i's blocks at offset i*nodeBytes, with the
// leaders' communicator ordered by node id).
func (c *Comm) UniformBlocks() bool { return c.uniform }

// PhysicalOrder returns the comm ranks sorted by physical position (node,
// socket, core) — the construction behind HierKNEM's topology-aware ring.
// The slice is computed on first use and shared by every caller: treat it
// as read-only. Like every lazily created field of Comm it is filled
// by whichever member asks first.
func (c *Comm) PhysicalOrder() []int {
	if c.physOrder == nil {
		order := make([]int, len(c.ranks))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(i, j int) int {
			a, b := c.Proc(i).core, c.Proc(j).core
			return cmp.Or(cmp.Compare(a.NodeID, b.NodeID),
				cmp.Compare(a.Socket.ID, b.Socket.ID), cmp.Compare(a.Local, b.Local))
		})
		c.physOrder = order
	}
	return c.physOrder
}

// Attr returns the value last stored with SetAttr, or nil. The slot lets a
// layer above (one at a time — the MPI_Comm_set_attr idiom with a single
// key) cache per-communicator state that dies with the communicator.
func (c *Comm) Attr() any { return c.attr }

// SetAttr stores v in the communicator's attribute slot.
func (c *Comm) SetAttr(v any) { c.attr = v }

// splitState stages a collective Comm.Split.
type splitState struct {
	entries []splitEntry // by comm rank, until the last arriver sorts them
	result  []*Comm      // comm rank -> new comm (nil for Undefined); nil until published
	waiters []*Proc      // every arriver but the last, in arrival order
}

type splitEntry struct{ color, key, rank int }

// Undefined is the color that opts a rank out of Split (it receives nil).
const Undefined = -32766

// Split partitions the communicator by color; within a color, ranks are
// ordered by key, ties broken by original rank (MPI semantics). Collective:
// all members must call it. Ranks passing Undefined receive nil.
//
// New communicators take their context ids in ascending color order, and
// the last arriver wakes the parked ranks in arrival order: both are part
// of the determinism contract (they fix (time, seq) tie-breaks downstream).
func (c *Comm) Split(p *Proc, color, key int) *Comm {
	me := c.Rank(p)
	if c.splitOp == nil {
		c.splitOp = &splitState{
			entries: make([]splitEntry, c.Size()),
			waiters: make([]*Proc, 0, c.Size()-1),
		}
	}
	op := c.splitOp
	op.entries[me] = splitEntry{color, key, me}
	if len(op.waiters) < c.Size()-1 {
		op.waiters = append(op.waiters, p)
		for op.result == nil {
			p.dp.Park()
		}
		return op.result[me]
	}

	// Last arriver builds the result and releases everyone: one sort by
	// (color, key, rank), then every run of one color is a new communicator.
	es := op.entries
	slices.SortFunc(es, func(a, b splitEntry) int {
		if a.color != b.color {
			return cmp.Compare(a.color, b.color)
		}
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return cmp.Compare(a.rank, b.rank)
	})
	result := make([]*Comm, len(es))
	for lo, hi := 0, 0; lo < len(es); lo = hi {
		for hi = lo + 1; hi < len(es) && es[hi].color == es[lo].color; hi++ {
		}
		if es[lo].color == Undefined {
			continue
		}
		worldRanks := make([]int, hi-lo)
		for i, e := range es[lo:hi] {
			worldRanks[i] = c.ranks[e.rank]
		}
		sub := c.world.newComm(worldRanks)
		for _, e := range es[lo:hi] {
			result[e.rank] = sub
		}
	}
	op.result = result
	c.splitOp = nil
	for _, w := range op.waiters {
		c.world.syncEdge(p, w)
		w.dp.Wake()
	}
	return result[me]
}

// barrierState implements a sense-reversing centralized barrier for
// intra-node comms. Its waiter array is allocated on first use and reused
// by every later barrier on the communicator (see wakeAll).
type barrierState struct {
	count   int
	gen     int
	waiters []*Proc
}

// wakeAll releases every process on *ws, in order, on behalf of from: a
// sync edge from from, then a Wake. Then it empties the list while keeping
// its array. Reusing the array at once is safe because Wake only schedules a
// resume event: no woken process runs, and so none re-enters and appends,
// before the loop is over.
func wakeAll(from *Proc, ws *[]*Proc) {
	for _, w := range *ws {
		from.world.syncEdge(from, w)
		w.dp.Wake()
	}
	clear(*ws)
	*ws = (*ws)[:0]
}

// Barrier blocks until every member has entered. Intra-node communicators
// use a flag-based shared-memory barrier costing one shm latency per
// process; communicators spanning nodes use a dissemination barrier with
// zero-byte messages. Both run as stepped waits (see waitStep).
func (c *Comm) Barrier(p *Proc) {
	if c.Size() == 1 {
		return
	}
	s := p.waitStep()
	if c.IntraNode() {
		s.run(stepFlag, c, 0)
		return
	}
	s.me, s.round = int32(c.Rank(p)), 0
	s.run(stepDissemination, c, 0)
}

// reserved internal tag space (user tags must be non-negative and modest).
const internalTagBase = 1 << 24
