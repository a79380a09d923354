package mpi

// Blackboard support: collective implementations on shared-memory nodes
// exchange control values (buffer addresses, KNEM cookies) through a shared
// segment whose address is known to every local process. BBPost/BBWait model
// exactly that: a zero-copy control channel. They carry no data-movement
// cost — callers charge whatever latency their protocol implies (HierKNEM,
// for instance, pays a cookie-broadcast on lcomm).
//
// Seq provides per-process per-communicator operation counters so SPMD code
// can derive matching blackboard keys without communicating: every member
// executes the same sequence of collectives on a communicator, so the n-th
// call at one rank pairs with the n-th call at every other rank.
//
// A slot is named by a BBKey — the operation, the call's Seq and, for
// per-rank slots, the posting comm rank — so naming one formats nothing and
// allocates nothing. Slots that differ in any field are independent.

// BBKey names a blackboard slot. Op is the posting operation's constant
// name ("hkbcast", "smreduce", ...), Seq the call's Seq on the
// communicator, and Rank the posting comm rank for slots each rank posts
// separately (0 when one slot serves the whole call).
type BBKey struct {
	Op   string
	Seq  int
	Rank int
}

type bbEntry struct {
	val     any
	present bool
	poster  *Proc // last poster, the source of a reader's sync edge
	waiters []*Proc
}

// entry returns key's slot, creating it empty on first use.
func (c *Comm) entry(key BBKey) *bbEntry {
	if c.bb == nil {
		c.bb = make(map[BBKey]*bbEntry)
	}
	e := c.bb[key]
	if e == nil {
		e = &bbEntry{}
		c.bb[key] = e
	}
	return e
}

// BBPost publishes v under key on the communicator's blackboard, waking any
// BBWait-ers. Posting an existing key overwrites it.
func (c *Comm) BBPost(p *Proc, key BBKey, v any) {
	e := c.entry(key)
	e.val = v
	e.present = true
	e.poster = p
	wakeAll(p, &e.waiters)
}

// BBWait blocks until key is posted and returns its value.
func (c *Comm) BBWait(p *Proc, key BBKey) any { return c.bbWait(p, 1, 0, key) }

// BBWaitAfter charges p d seconds — the cost of reaching the blackboard,
// such as a KNEM cookie lookup's kernel entry — then does BBWait, as one
// stepped wait: p is switched into once, when the value is there.
func (c *Comm) BBWaitAfter(p *Proc, d float64, key BBKey) any { return c.bbWait(p, 0, d, key) }

func (c *Comm) bbWait(p *Proc, phase uint8, d float64, key BBKey) any {
	s := p.waitStep()
	s.d, s.key = d, key
	s.run(stepLookup, c, phase)
	v := s.e.val
	s.key, s.e = BBKey{}, nil
	return v
}

// BBClear removes a key (typically by the last reader, after a barrier).
func (c *Comm) BBClear(key BBKey) {
	delete(c.bb, key)
}

// Seq returns an increasing per-(process, communicator) call counter,
// aligned across ranks by SPMD execution order.
func (c *Comm) Seq(p *Proc) int {
	if c.seqs == nil {
		c.seqs = make([]int, c.Size())
	}
	me := c.Rank(p)
	n := c.seqs[me]
	c.seqs[me] = n + 1
	return n
}
