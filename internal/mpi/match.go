package mpi

// Indexed p2p matching. MPI matching semantics are posting-order FIFO: an
// arriving envelope matches the OLDEST posted receive it satisfies, and a
// posted receive matches the OLDEST unexpected envelope it satisfies. The
// seed implementation kept one flat slice per side and scanned it linearly,
// which is quadratic under fan-in (hundreds of senders targeting one rank).
//
// Both sides are indexed by the fully-specific matching key (ctx, src, tag)
// in a small chained hash whose chains are threaded through the records
// themselves (posting.hnext, envelope.hnext):
//
//   - posted receives hang off their key's bucket when fully specific, plus
//     a posting-order wildcard list for receives using AnySource/AnyTag. An
//     envelope (always concrete) can match at most one specific key, so
//     matching compares the first equal-key record of that bucket's chain
//     with the first matching wildcard and takes the older posting — exact
//     posting order at O(chain) + O(wildcards).
//
//   - unexpected envelopes hang off their key's bucket and are also linked
//     into an intrusive arrival-order list. A fully specific receive takes
//     the first equal-key record of one chain; a wildcard receive walks the
//     arrival list, and the envelope it finds is by construction also the
//     first of its key in its chain, so both structures stay consistent
//     without lazy deletion.
//
// Order: add appends at the chain's tail, so a chain lists its records in
// posting (resp. arrival) order and the first equal-key record is the oldest
// of its key. Doubling keeps that: bucket counts are powers of two, so every
// new chain draws from exactly one old chain, and grow re-links each old
// chain front to back — a new chain is a subsequence of an old one.
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

// bucketOf mixes a fully-specific matching key down to a slot of an n-bucket
// array, n a power of two. Slots are the low bits, so the final fold brings
// the high product bits down.
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
	buckets []postChain // fully-specific receives, chained by key hash; len is 0 or a power of two
	live    int         // records linked into buckets
	wild    []*posting  // receives with AnySource and/or AnyTag, posting order
	nextSeq uint64      // global posting order, compared across the two tiers
	count   int
}

func (ix *postIndex) add(po *posting) {
	po.seq = ix.nextSeq
	ix.nextSeq++
	ix.count++
	if po.srcWorld == AnySource || po.tag == AnyTag {
		ix.wild = append(ix.wild, po)
		return
	}
	if ix.live == len(ix.buckets) {
		ix.grow()
	}
	ix.live++
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

// reset clears the index for world reuse. The bucket array stays (warm for
// the next run) and the posting-order counter restarts at zero, so a reused
// index assigns the same seq values — hence the same specific-vs-wildcard
// tie-breaks — as a fresh one. Receives still posted are dropped to the
// garbage collector, unlinked so they do not chain to each other.
func (ix *postIndex) reset() {
	if ix.live > 0 {
		for _, c := range ix.buckets {
			for po := c.head; po != nil; {
				next := po.hnext
				po.hnext = nil
				po = next
			}
		}
		clear(ix.buckets)
		ix.live = 0
	}
	clear(ix.wild)
	ix.wild = ix.wild[:0]
	ix.nextSeq = 0
	ix.count = 0
}

// match removes and returns the oldest posted receive env satisfies, or nil.
func (ix *postIndex) match(env *envelope) *posting {
	if ix.count == 0 {
		return nil
	}
	var c *postChain
	var sp, before *posting // the oldest equal-key specific receive and its chain predecessor
	if ix.live > 0 {
		c = &ix.buckets[bucketOf(env.ctx, env.srcWorld, env.tag, len(ix.buckets))]
		for sp = c.head; sp != nil; before, sp = sp, sp.hnext {
			if sp.tag == env.tag && sp.srcWorld == env.srcWorld && sp.ctx == env.ctx {
				break
			}
		}
	}
	wi := -1
	for i, po := range ix.wild {
		if env.matches(po) {
			wi = i
			break
		}
	}
	switch {
	case sp == nil && wi < 0:
		return nil
	case sp != nil && (wi < 0 || sp.seq < ix.wild[wi].seq):
		if before != nil {
			before.hnext = sp.hnext
		} else {
			c.head = sp.hnext
		}
		if c.tail == sp {
			c.tail = before
		}
		sp.hnext = nil
		ix.live--
		ix.count--
		return sp
	default:
		po := ix.wild[wi]
		copy(ix.wild[wi:], ix.wild[wi+1:])
		ix.wild[len(ix.wild)-1] = nil // no stale tail pointer
		ix.wild = ix.wild[:len(ix.wild)-1]
		ix.count--
		return po
	}
}

// envChain is one bucket of an envIndex: its records in arrival order.
type envChain struct{ head, tail *envelope }

// envIndex holds one rank's unexpected envelopes (arrived or announced
// before a matching receive was posted). Every envelope is fully specific,
// so count is also the number of records linked into buckets.
type envIndex struct {
	buckets    []envChain // chained by key hash; len is 0 or a power of two
	head, tail *envelope  // intrusive arrival-order list
	count      int
}

func (ix *envIndex) add(env *envelope) {
	if ix.count == len(ix.buckets) {
		ix.grow()
	}
	ix.link(env)
	env.prev = ix.tail
	env.next = nil
	if ix.tail != nil {
		ix.tail.next = env
	} else {
		ix.head = env
	}
	ix.tail = env
	ix.count++
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
// between runs is far off any hot path.
func (ix *envIndex) reset() {
	if ix.count == 0 {
		return
	}
	// Unlink both lists so dropped envelopes do not chain to each other
	// (the links are reused when a record is pooled).
	for env := ix.head; env != nil; {
		next := env.next
		env.prev, env.next, env.hnext = nil, nil, nil
		env = next
	}
	clear(ix.buckets)
	ix.head, ix.tail = nil, nil
	ix.count = 0
}

// match removes and returns the oldest unexpected envelope po satisfies, or
// nil.
func (ix *envIndex) match(po *posting) *envelope {
	if ix.count == 0 {
		return nil
	}
	if po.srcWorld != AnySource && po.tag != AnyTag {
		c, env, before := ix.oldest(po.ctx, po.srcWorld, po.tag)
		if env != nil {
			ix.remove(c, env, before)
		}
		return env
	}
	for env := ix.head; env != nil; env = env.next {
		if env.matches(po) {
			c, first, before := ix.oldest(env.ctx, env.srcWorld, env.tag)
			if first != env {
				panic("mpi: matching index out of sync: arrival-list envelope is not the oldest of its key")
			}
			ix.remove(c, env, before)
			return env
		}
	}
	return nil
}

// oldest finds the first record with the given key in its bucket's chain,
// returning the chain, the record (nil when the key has none) and the
// record's chain predecessor.
func (ix *envIndex) oldest(ctx, src, tag int) (c *envChain, env, before *envelope) {
	c = &ix.buckets[bucketOf(ctx, src, tag, len(ix.buckets))]
	for env = c.head; env != nil; before, env = env, env.hnext {
		if env.tag == tag && env.srcWorld == src && env.ctx == ctx {
			break
		}
	}
	return c, env, before
}

// remove unlinks env — whose predecessor in chain c is before — from both
// structures.
func (ix *envIndex) remove(c *envChain, env, before *envelope) {
	if before != nil {
		before.hnext = env.hnext
	} else {
		c.head = env.hnext
	}
	if c.tail == env {
		c.tail = before
	}
	if env.prev != nil {
		env.prev.next = env.next
	} else {
		ix.head = env.next
	}
	if env.next != nil {
		env.next.prev = env.prev
	} else {
		ix.tail = env.prev
	}
	env.prev, env.next, env.hnext = nil, nil, nil
	ix.count--
}
