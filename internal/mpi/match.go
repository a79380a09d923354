package mpi

// Indexed p2p matching. MPI matching semantics are posting-order FIFO: an
// arriving envelope matches the OLDEST posted receive it satisfies, and a
// posted receive matches the OLDEST unexpected envelope it satisfies. The
// seed implementation kept one flat slice per side and scanned it linearly,
// which is quadratic under fan-in (hundreds of senders targeting one rank).
//
// Every receive names its source and tag (Irecv rejects anything else), so
// a record satisfies exactly the records of its own matching key (ctx, src,
// tag). Both sides are indexed by that key in a small chained hash whose
// chains are threaded through the records themselves (posting.hnext,
// envelope.hnext), and matching removes the first equal-key record of one
// chain.
//
// Order: add appends at the chain's tail, so a chain lists its records in
// posting (resp. arrival) order and the first equal-key record is the oldest
// of its key — which is also MPI's non-overtaking rule for messages between
// one pair of ranks on one tag. Doubling keeps that: bucket counts are
// powers of two, so every new chain draws from exactly one old chain, and
// grow re-links each old chain front to back — a new chain is a subsequence
// of an old one.
//
// Size: the bucket array doubles when the live entries fill it and never
// shrinks, so an index is bounded by the peak number of entries pending at
// once, not by the number of distinct keys a run has ever used. Collectives
// mint fresh (ctx, tag) keys all the time but keep only a handful of
// operations in flight per rank. There is no per-key object: an index with
// nothing pending holds an array of nil pairs and nothing else.
//
// The two indexes repeat link and grow rather than share them through a
// type parameter: the chain link is a field of the record, which generic
// code could reach only through a method call per hop.

const minBuckets = 8

// bucketOf mixes a matching key down to a slot of an n-bucket array, n a
// power of two. Slots are the low bits, so the final fold brings the high
// product bits down.
func bucketOf(ctx, src, tag, n int) int {
	h := uint64(ctx)*0x9E3779B97F4A7C15 + uint64(src)*0xC2B2AE3D27D4EB4F + uint64(tag)*0x165667B19E3779F9
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	return int((h ^ h>>32) & uint64(n-1))
}

// postChain is one bucket of a postIndex: its records in posting order.
type postChain struct{ head, tail *posting }

// postIndex holds one rank's posted receives awaiting a match.
type postIndex struct {
	buckets []postChain // chained by key hash; len is 0 or a power of two
	count   int         // records linked into buckets
}

func (ix *postIndex) add(po *posting) {
	if ix.count == len(ix.buckets) {
		ix.grow()
	}
	ix.count++
	ix.link(po)
}

// link appends po to its bucket's chain.
func (ix *postIndex) link(po *posting) {
	c := &ix.buckets[bucketOf(po.ctx, po.srcWorld, po.tag, len(ix.buckets))]
	if c.tail != nil {
		c.tail.hnext = po
	} else {
		c.head = po
	}
	c.tail = po
}

// grow doubles the bucket array, re-linking every record in chain order.
func (ix *postIndex) grow() {
	old := ix.buckets
	ix.buckets = make([]postChain, max(minBuckets, 2*len(old)))
	for _, c := range old {
		for po := c.head; po != nil; {
			next := po.hnext
			po.hnext = nil
			ix.link(po)
			po = next
		}
	}
}

// reset clears the index for world reuse, keeping the bucket array warm.
// Receives still posted are dropped to the garbage collector, unlinked so
// they do not chain to each other.
func (ix *postIndex) reset() {
	if ix.count == 0 {
		return
	}
	for _, c := range ix.buckets {
		for po := c.head; po != nil; {
			next := po.hnext
			po.hnext = nil
			po = next
		}
	}
	clear(ix.buckets)
	ix.count = 0
}

// match removes and returns the oldest posted receive of env's key, or nil.
func (ix *postIndex) match(env *envelope) *posting {
	if ix.count == 0 {
		return nil
	}
	c := &ix.buckets[bucketOf(env.ctx, env.srcWorld, env.tag, len(ix.buckets))]
	var before *posting
	for po := c.head; po != nil; before, po = po, po.hnext {
		if po.tag == env.tag && po.srcWorld == env.srcWorld && po.ctx == env.ctx {
			if before != nil {
				before.hnext = po.hnext
			} else {
				c.head = po.hnext
			}
			if c.tail == po {
				c.tail = before
			}
			po.hnext = nil
			ix.count--
			return po
		}
	}
	return nil
}

// envChain is one bucket of an envIndex: its records in arrival order.
type envChain struct{ head, tail *envelope }

// envIndex holds one rank's unexpected envelopes (arrived or announced
// before a matching receive was posted).
type envIndex struct {
	buckets []envChain // chained by key hash; len is 0 or a power of two
	count   int        // records linked into buckets
}

func (ix *envIndex) add(env *envelope) {
	if ix.count == len(ix.buckets) {
		ix.grow()
	}
	ix.count++
	ix.link(env)
}

// link appends env to its bucket's chain.
func (ix *envIndex) link(env *envelope) {
	c := &ix.buckets[bucketOf(env.ctx, env.srcWorld, env.tag, len(ix.buckets))]
	if c.tail != nil {
		c.tail.hnext = env
	} else {
		c.head = env
	}
	c.tail = env
}

// grow doubles the bucket array, re-linking every record in chain order.
func (ix *envIndex) grow() {
	old := ix.buckets
	ix.buckets = make([]envChain, max(minBuckets, 2*len(old)))
	for _, c := range old {
		for env := c.head; env != nil; {
			next := env.hnext
			env.hnext = nil
			ix.link(env)
			env = next
		}
	}
}

// reset clears the index for world reuse, keeping the bucket array warm.
// Entries still linked (sends never received) are dropped; their records
// are surrendered to the garbage collector rather than a pool, as a reset
// between runs is far off any hot path. They are unlinked so they do not
// chain to each other (the link is reused when a record is pooled).
func (ix *envIndex) reset() {
	if ix.count == 0 {
		return
	}
	for _, c := range ix.buckets {
		for env := c.head; env != nil; {
			next := env.hnext
			env.hnext = nil
			env = next
		}
	}
	clear(ix.buckets)
	ix.count = 0
}

// match removes and returns the oldest unexpected envelope of po's key, or
// nil.
func (ix *envIndex) match(po *posting) *envelope {
	if ix.count == 0 {
		return nil
	}
	c := &ix.buckets[bucketOf(po.ctx, po.srcWorld, po.tag, len(ix.buckets))]
	var before *envelope
	for env := c.head; env != nil; before, env = env, env.hnext {
		if env.tag == po.tag && env.srcWorld == po.srcWorld && env.ctx == po.ctx {
			if before != nil {
				before.hnext = env.hnext
			} else {
				c.head = env.hnext
			}
			if c.tail == env {
				c.tail = before
			}
			env.hnext = nil
			ix.count--
			return env
		}
	}
	return nil
}
