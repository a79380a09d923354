package coll

import (
	"math/bits"
	"slices"

	"hierknem/internal/buffer"
	"hierknem/internal/des"
	"hierknem/internal/mpi"
)

// A schedule is an exchange loop's step plan: whom a rank trades with at
// each step and which ranges of rbuf go and come.
type schedule uint8

const (
	ringAllgather     schedule = iota // AllgatherRing: size-1 steps around the ring
	doublingAllgather                 // AllgatherRecursiveDoubling: log2(size) steps
	doublingAllreduce                 // AllreduceRecursiveDoubling: log2(size) folding steps
	ringAllreduce                     // AllreduceRing: size-1 folding steps, then size-1 more
)

// An exchange is a rank's part of an exchange loop as one stepped wait
// (des.Stepper): a schedule of sendrecvs (mpi.SendRecv), each followed, as
// the loop asks, by a fold of what arrived into rbuf (Proc.StartReduce,
// FinishReduce) or by the serialized ring's penalty sleep. The rank is
// switched into once per call instead of once or twice per step; the calls
// and their order are the loop's.
type exchange struct {
	p     *mpi.Proc
	c     *mpi.Comm
	kind  schedule
	phase uint8 // 0: start step s's sendrecv, 1: drive it, 2: end its fold
	s     int   // the step under way
	steps int
	x     mpi.SendRecv

	me, pos, size int
	order         []int // the ring, only read (nil: rank order)
	rbuf          *buffer.Buffer
	block         int64         // an Allgather's block: a rank's share of rbuf
	a             ReduceArgs    // a folding kind's reduction
	tmp           buffer.Buffer // what a folding step receives into
	penalty       float64       // the serialized ring's sleep after each step
}

// step is one sendrecv of a schedule: send sn bytes of rbuf at so to
// right, receive rn bytes from left into rbuf at ro, or, when it folds,
// into tmp and then fold them into that range of rbuf.
type step struct {
	so, sn, ro, rn int64
	right, left    int
	tag            int
	fold           bool
}

// newExchange returns the exchange of kind for p's rank of c, the whole
// record but the serialized ring's penalty: a ring runs in order, an
// Allgather's block is sbuf's length, and a folding kind (the Allreduces)
// folds with a into rbuf what it receives into scratch made like sbuf.
// p.DES().Steps(e) plays it.
func newExchange(kind schedule, p *mpi.Proc, c *mpi.Comm, a ReduceArgs, sbuf, rbuf *buffer.Buffer, order []int) *exchange {
	e := &exchange{p: p, c: c, kind: kind, me: c.Rank(p), size: c.Size(), order: order, rbuf: rbuf, block: sbuf.Len(), a: a}
	e.pos = e.me
	if order != nil {
		e.pos = slices.Index(order, e.me)
	}
	switch kind {
	case ringAllgather:
		e.steps = e.size - 1
	case ringAllreduce:
		e.steps = 2 * (e.size - 1)
		var most int64
		for i := range e.size {
			_, n := e.chunk(i)
			most = max(most, n)
		}
		e.tmp = *Like(sbuf, most)
	default: // a power-of-two size
		e.steps = bits.Len(uint(e.size) - 1)
		if kind == doublingAllreduce {
			e.tmp = *Like(sbuf, sbuf.Len())
		}
	}
	return e
}

// ring returns the rank at ring position i, taken modulo the size.
func (e *exchange) ring(i int) int {
	i = (i%e.size + e.size) % e.size
	if e.order == nil {
		return i
	}
	return e.order[i]
}

// chunk returns the range of AllreduceRing's chunk i, taken modulo the size:
// element-aligned bounds, the last chunk running to the end of rbuf.
func (e *exchange) chunk(i int) (int64, int64) {
	i = (i%e.size + e.size) % e.size
	lo := e.bound(i)
	return lo, e.bound(i+1) - lo
}

func (e *exchange) bound(i int) int64 {
	total := e.rbuf.Len()
	if i == e.size {
		return total
	}
	es := e.a.Dtype.Size()
	return total * int64(i) / int64(e.size) / es * es
}

// plan returns step s of e's schedule.
func (e *exchange) plan(s int) step {
	switch e.kind {
	case ringAllgather:
		// At step s I send the block that originated at ring position
		// (pos-s) and receive the one from position (pos-s-1).
		b := e.block
		return step{so: int64(e.ring(e.pos-s)) * b, sn: b, ro: int64(e.ring(e.pos-s-1)) * b, rn: b,
			right: e.ring(e.pos + 1), left: e.ring(e.pos - 1), tag: collTag + s}
	case doublingAllgather:
		// My gathered range is the aligned chunk of mask ranks containing
		// me; the peer's is the one beside it.
		mask := 1 << s
		peer := e.me ^ mask
		n := int64(mask) * e.block
		return step{so: int64(e.me&^(mask-1)) * e.block, sn: n, ro: int64(peer&^(mask-1)) * e.block, rn: n,
			right: peer, left: peer, tag: collTag + mask}
	case doublingAllreduce:
		n := e.rbuf.Len()
		peer := e.me ^ 1<<s
		return step{sn: n, rn: n, right: peer, left: peer, tag: collTag + 23, fold: true}
	}
	// ringAllreduce. Phase 1, reduce-scatter: after step s this rank holds
	// the partial sum of chunk (pos-s-1) over s+2 contributors, and after
	// size-1 steps the fully reduced chunk (pos+1). Phase 2 allgathers the
	// reduced chunks around the same ring.
	st := step{right: e.ring(e.pos + 1), left: e.ring(e.pos - 1)}
	if s < e.size-1 {
		st.so, st.sn = e.chunk(e.pos - s)
		st.ro, st.rn = e.chunk(e.pos - s - 1)
		st.tag, st.fold = collTag+24+s, true
		return st
	}
	s -= e.size - 1
	st.so, st.sn = e.chunk(e.pos + 1 - s)
	st.ro, st.rn = e.chunk(e.pos - s)
	st.tag = collTag + 500 + s
	return st
}

// Step advances the schedule (des.Stepper).
func (e *exchange) Step(dp *des.Proc) des.Wait {
	p := e.p
	for ; e.s < e.steps; e.s, e.phase = e.s+1, 0 {
		st := e.plan(e.s)
		switch e.phase {
		case 0:
			rb := e.rbuf.Slice(st.ro, st.rn)
			if st.fold {
				rb = e.tmp.Slice(0, st.rn)
			}
			e.x = p.StartSendRecv(e.c, e.rbuf.Slice(st.so, st.sn), st.right, st.tag, rb, st.left, st.tag)
			e.phase = 1
			fallthrough
		case 1:
			if w := e.x.Step(dp); w != des.Done {
				return w
			}
			e.phase = 2
			w := des.Done
			switch {
			case st.fold:
				w = p.StartReduce(e.rbuf.Slice(st.ro, st.rn))
			case e.penalty > 0:
				w = des.SleepFor(e.penalty)
			}
			if w != des.Done {
				return w
			}
		}
		if st.fold {
			if w := p.FinishReduce(e.a.Op, e.a.Dtype, e.rbuf.Slice(st.ro, st.rn), e.tmp.Slice(0, st.rn)); w != des.Done {
				return w
			}
		}
	}
	return des.Done
}
