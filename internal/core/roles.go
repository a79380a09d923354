package core

import (
	"hierknem/internal/buffer"
	"hierknem/internal/coll"
	"hierknem/internal/des"
	"hierknem/internal/hier"
	"hierknem/internal/knem"
	"hierknem/internal/mpi"
)

// A role is a part a rank plays in a call (roleRun runs it). The roles are
// in collective order, Bcast's first: shape.at and shape.segment compare them.
type role uint8

const (
	bcastNonLeader     role = iota // Algorithm 1, steps 36-46
	bcastLeader                    // Algorithm 1, steps 2-32
	reduceNonLeader                // Algorithm 2, steps 17-19: a link of new_comm's chain
	allgatherNonLeader             // section III-D's leader-based Allgather: steps 1 and 3
	allgatherLeader                // and step 2, the inter-node ring
)

// An entry is one line of a sequence: an op, the step kind, in its low
// nibble and a count in its high one.
type entry uint8

// The ops: each makes its call through the call's stepped half.
const (
	opEnd      entry = iota // ends a part of a sequence
	opLookup                // look the leader's share up (Comm.LookupStep)
	opBarrier               // an lcomm barrier (Comm.BarrierStep)
	opPublish               // register buf and post the share (steps 2-3)
	opWithdraw              // deregister it and clear the post
	opGet                   // get segment i into buf (Device.StartGet, Copy.Step)
	opPut                   // put src into its block of the share (Device.StartPut)
	opIrecv                 // post the receive of segment i
	opWaitRecv              // wait for it (Request.Step)
	opIsend                 // send segment i to peer j (Proc.StartSend, Send.Step)
	opWaitSend              // wait for that send (Request.Step)
	opStage                 // mint segment i's partial and the upstream's scratch
	opReduce                // fold the upstream's partial in (StartReduce, FinishReduce)
	opCompute               // close the small stretch, charging its latency

	// The prologue's, which no sequence holds: build sets them.
	opBuild   // build the hierarchy (hier.BuildStep)
	opNewComm // split the Reduce's new_comm off the node (hier.NewCommStep)
)

// The counts: how often an entry runs at a segment.
const (
	once     entry = iota << 4
	fed            // once where the rank is fed: see shape.at
	prepost        // once where fed, on the next segment, if there is one
	prior          // once where fed, on the previous segment
	perChild       // once per child in the spanning tree
	trim           // per child from the third segment on: the sends beyond two segments in flight
	drain          // once per send still in flight
)

// sequences is each role's prologue, body (once per segment) and epilogue.
//
//lint:ignore runisolation a read-only table: shape.at only reads it, and nothing writes it
var sequences = [...][3][6]entry{
	bcastNonLeader: {{opLookup | once}, {opBarrier | fed, opGet | once}, {opBarrier | once}},
	bcastLeader: {{opPublish | once, opIrecv | fed},
		{opIrecv | prepost, opWaitRecv | fed, opIsend | perChild, opBarrier | fed, opWaitSend | trim},
		{opWaitSend | drain, opBarrier | once, opWithdraw | once}},
	reduceNonLeader: {{}, {opStage | once, opIrecv | fed, opWaitRecv | fed, opReduce | fed, opIsend | once, opWaitSend | once},
		{opBarrier | once}},
	allgatherNonLeader: {{opLookup | once, opPut | once, opBarrier | once, opCompute | once},
		{opBarrier | fed, opGet | once}, {opBarrier | once}},
	allgatherLeader: {{opPublish | once, opBarrier | once, opCompute | once},
		{opIrecv | fed, opIsend | prior, opWaitRecv | fed, opWaitSend | prior, opBarrier | fed},
		{opBarrier | once, opWithdraw | once}},
}

// A shape is all a role's sequence depends on; shape.at reads the sequence
// off it without a world.
type shape struct {
	role     role
	rootNode bool  // Bcast: on the root's node
	nseg     int32 // segments; the Allgather's node blocks
	nch      int32 // Bcast leader: children in the spanning tree
	// v: the virtual rank in the spanning tree over size leaders rooted at
	// root (Bcast leader), the rank in new_comm (Reduce), the node index,
	// root being the comm rank (Allgather).
	v, size, root int32
	n, seg        int64 // message and segment length
}

// A cursor is a place in a sequence (part, entry, repetition, segment) and
// the step there (shape.at); ph is 0 until that step has started.
type cursor struct {
	part, e, ph  uint8
	op           entry
	seq          int32 // the call's blackboard key (roleRun's; here to pack)
	j, i, si, sj int32
}

// bcastShape is a Bcast role's shape on node node of nodes, the root's
// being rootIdx.
func bcastShape(leader bool, node, nodes, rootIdx int, n, seg int64) shape {
	sh := shape{rootNode: node == rootIdx, n: n, seg: seg, nseg: int32(segCount(n, seg))}
	switch {
	case leader:
		sh.role, sh.size, sh.root = bcastLeader, int32(nodes), int32(rootIdx)
		sh.v = int32((node - rootIdx + nodes) % nodes)
		_, nch := spanningTree(int(sh.v), nodes, int64(sh.nseg))
		sh.nch = int32(nch)
	case sh.rootNode:
		// The root holds the whole message already: fetch it in one
		// one-sided copy (step 38).
		sh.seg, sh.nseg = n, 1
	}
	return sh
}

// at moves c on to the next step that runs unless it is at one and sets
// c's step; false once the sequence is over. A rank is fed where it receives
// (Bcast off the root's node, Reduce but at the chain's far end, Allgather
// but its own node's block).
func (sh *shape) at(c *cursor) bool {
	sq := &sequences[sh.role]
	for c.part < 3 {
		es := &sq[c.part]
		if int(c.e) == len(es) || es[c.e] == opEnd {
			if c.e = 0; c.part == 1 && c.i+1 < sh.nseg {
				c.i++
			} else {
				c.part++
			}
			continue
		}
		k, n, si, sj := es[c.e]&^15, int32(1), c.i, c.j
		switch k {
		case fed, prepost, prior:
			fed := sh.role < reduceNonLeader && !sh.rootNode || sh.role == reduceNonLeader && sh.v+1 < sh.size ||
				sh.role > reduceNonLeader && c.i > 0
			if !fed || k == prepost && c.i+1 == sh.nseg {
				n = 0
			}
			if k == prepost {
				si++
			} else if k == prior {
				si--
			}
		case perChild:
			n = sh.nch
		case trim: // from the third segment on, the sends of two segments back
			n, si = sh.nch*min(max(c.i-1, 0), 1), c.i-2
		case drain:
			n = sh.nch * min(sh.nseg, 2)
			si, sj = sh.nseg-n/max(sh.nch, 1)+c.j/max(sh.nch, 1), c.j%max(sh.nch, 1)
		}
		if c.j < n {
			c.op, c.si, c.sj = es[c.e]&15, si, sj
			return true
		}
		c.e, c.j = c.e+1, 0
	}
	return false
}

// segment returns the range of buf segment i covers: the pipeline segment,
// or the Allgather's node block that arrives i-th, its own node's first.
func (sh *shape) segment(i int32) (off, n int64) {
	if sh.role >= allgatherNonLeader {
		return int64((sh.v-i+sh.nseg)%sh.nseg) * sh.seg, sh.seg
	}
	return mpi.SegmentBounds(sh.n, sh.seg, int64(i))
}

// link returns a leader's llcomm peer: its parent (the Allgather ring's
// left) for j < 0, else its child j (the ring's right).
func (sh *shape) link(j int32) int {
	v := int(sh.v)
	switch {
	case sh.role == allgatherLeader && j < 0:
		return (v + int(sh.nseg) - 1) % int(sh.nseg)
	case sh.role == allgatherLeader:
		return (v + 1) % int(sh.nseg)
	case j < 0:
		v, _ = spanningTree(v, int(sh.size), int64(sh.nseg))
	case sh.nseg >= chainMinSegs:
		v++
	default: // binomial: v's children are v+2^j
		v += 1 << j
	}
	return (int(sh.root) + v) % int(sh.size)
}

// roleRun is the role interpreter, one per rank in the world's attribute
// slot: it runs a rank's part of a call as one stepped wait, so the rank is
// switched into once per call. A call arms it all but the blocks it keeps.
type roleRun struct {
	shape
	cursor
	p     *mpi.Proc
	lcomm *mpi.Comm
	c     *mpi.Comm      // llcomm (leaders) or new_comm (Reduce); the call's communicator while build's prologue runs
	buf   *buffer.Buffer // Bcast's buffer, Reduce's sbuf, Allgather's rbuf
	src   *buffer.Buffer // Allgather's sbuf
	a     coll.ReduceArgs
	sub   des.Stepper // the stepped half under way
	ck    knem.Cookie // the share's, on p's node device
	snd   mpi.Send
	cp    *knem.Copy
	part  *[2]buffer.Buffer // the Reduce's partial of the segment and the upstream's
	reqs  []*mpi.Request    // receives by segment parity, then sends by i%3 and child
}

// run plays sh on p.
func run(p *mpi.Proc, sh shape, lcomm, c *mpi.Comm, buf, src *buffer.Buffer, a coll.ReduceArgs, seq int) {
	r := record(p, sh, lcomm, c, buf, src, a, seq)
	r.ready()
	p.DES().Steps(r)
	r.release()
}

// build plays p's part of an uncached call on c. Its prologue, in the same
// stepped wait, builds the hierarchy after a charge of d, rooted at
// sh.root (hier.BuildStep), and casts p's role from it (roleRun.enter):
// sh gives the collective by its first role, the message and segment
// lengths and, for a Reduce, the segment count. A Reduce leader leaves the
// wait once cast; build returns the node communicator and, for it, the
// leaders' communicator (1st leader) or new_comm (2nd leader), whose part
// of the call runs on from there.
func build(p *mpi.Proc, sh shape, c *mpi.Comm, d float64, buf, src *buffer.Buffer, a coll.ReduceArgs) (lcomm, other *mpi.Comm) {
	r := record(p, sh, nil, c, buf, src, a, 0)
	r.op, r.ph, r.sub = opBuild, 1, hier.BuildStep(p, c, int(sh.root), d)
	p.DES().Steps(r)
	lcomm, other = r.lcomm, r.c
	r.release()
	return lcomm, other
}

// record arms p's record for a call of sh, keeping its blocks.
func record(p *mpi.Proc, sh shape, lcomm, c *mpi.Comm, buf, src *buffer.Buffer, a coll.ReduceArgs, seq int) *roleRun {
	w := p.World()
	rs, _ := w.Attr().([]roleRun)
	if rs == nil {
		rs = make([]roleRun, w.Size())
		w.SetAttr(rs)
	}
	r := &rs[p.Rank()]
	*r = roleRun{shape: sh, cursor: cursor{seq: int32(seq)}, p: p, lcomm: lcomm, c: c, buf: buf, src: src, a: a,
		cp: r.cp, part: r.part, reqs: r.reqs}
	return r
}

// ready gives r the blocks its role uses. A non-leader's come from slabs
// made on first use for every record in the world at once.
func (r *roleRun) ready() {
	rs := r.p.World().Attr().([]roleRun)
	switch r.role {
	case bcastNonLeader, allgatherNonLeader:
		if r.cp == nil {
			slab(rs, func(r *roleRun, x *knem.Copy) { r.cp = x })
		}
	case reduceNonLeader:
		if r.part == nil {
			slab(rs, func(r *roleRun, x *[2]buffer.Buffer) { r.part = x })
			slab(rs, func(r *roleRun, x *[5]*mpi.Request) { // a leader keeps its own, which may be in use
				if r.reqs == nil {
					r.reqs = x[:]
				}
			})
		}
	default:
		if need := 2 + 3*max(r.nch, 1); cap(r.reqs) < int(need) {
			r.reqs = make([]*mpi.Request, need)
		}
	}
}

// release lets go of the call: the record pins nothing between calls.
func (r *roleRun) release() {
	r.p, r.lcomm, r.c, r.buf, r.src, r.sub = nil, nil, nil, nil, nil, nil
}

// slab gives every record in rs, through set, its element of one new slab.
func slab[T any](rs []roleRun, set func(*roleRun, *T)) {
	xs := make([]T, len(rs))
	for i := range rs {
		set(&rs[i], &xs[i])
	}
}

// enter ends a step of build's prologue. Once the hierarchy is built it
// casts r's role from it, a Reduce splitting new_comm first; false for a
// Reduce leader, which leaves the wait.
func (r *roleRun) enter() bool {
	p := r.p
	if r.op == opBuild {
		hy := hier.Built(p, r.c, int(r.root))
		r.lcomm, r.c = hy.LComm, hy.LLComm
		switch r.role {
		case bcastNonLeader:
			r.shape = bcastShape(hy.IsLeader, hy.NodeIndex, hy.NodeCount, hy.RootNodeIndex, r.n, r.seg)
		case allgatherNonLeader:
			r.shape = allgatherShape(p, &hy, r.src, r.buf)
		default:
			r.op, r.sub = opNewComm, hier.NewCommStep(p, hy.LComm)
			return true
		}
		r.seq = int32(r.lcomm.Seq(p))
	} else {
		newComm, _ := p.SplitResult()
		switch r.lcomm.Rank(p) {
		case 0:
			return false
		case 1:
			r.c = newComm
			return false
		}
		r.c, r.v, r.size = newComm, int32(newComm.Rank(p)), int32(newComm.Size())
	}
	r.op, r.ph = opEnd, 0
	r.ready()
	return true
}

// Step advances the sequence (des.Stepper): it starts the step at the
// cursor, r.sub being the stepped half that ends it, drives it to Done and
// moves on. build's prologue, if any, comes first.
func (r *roleRun) Step(dp *des.Proc) des.Wait {
	for r.op == opBuild || r.op == opNewComm {
		if w := r.sub.Step(dp); w != des.Done {
			return w
		}
		if r.sub = nil; !r.enter() {
			return des.Done
		}
	}
	for p := r.p; ; r.j, r.ph = r.j+1, 0 {
		if r.ph == 0 && !r.at(&r.cursor) {
			return des.Done
		}
		i, j := r.si, r.sj
		if r.ph == 0 {
			r.ph = 1
			w := des.Done
			switch r.op {
			case opLookup:
				r.sub = r.lcomm.LookupStep(p, p.World().Machine.Spec.ShmLatency, r.key())
			case opBarrier:
				r.sub = r.lcomm.BarrierStep(p)
			case opPublish, opWithdraw:
				w = des.SleepFor(p.World().Machine.Spec.ShmLatency) // the syscall
			case opGet, opPut:
				var err error
				if off, n := r.segment(i); r.op == opGet {
					*r.cp, w, err = p.Knem().StartGet(dp, p.Core(), r.ck, off, r.buf, off, n)
				} else {
					*r.cp, w, err = p.Knem().StartPut(dp, p.Core(), r.ck, int64(r.root)*r.src.Len(), r.src)
				}
				if err != nil {
					panic(err)
				}
				r.sub = r.cp
			case opIrecv, opIsend:
				var b *buffer.Buffer
				peer, tag := int(r.v)+1, coll.ChainTag(0)
				if r.role == reduceNonLeader {
					b = &r.part[1]
					if r.op == opIsend {
						b, peer = &r.part[0], int(r.v)-1
					}
				} else {
					off, n := r.segment(i)
					b, peer, tag = r.buf.Slice(off, n), r.link(j), hkTag+int(i)
					if r.op == opIrecv {
						peer = r.link(-1)
					}
					if r.role == allgatherLeader {
						tag = hkTag + 2000 + int(r.i) - 1 // the ring's step
					}
				}
				if r.op == opIrecv {
					r.reqs[i%2] = p.Irecv(r.c, b, peer, tag)
				} else {
					r.snd, w = p.StartSend(r.c, b, peer, tag)
					r.sub = &r.snd
				}
			case opWaitRecv:
				r.sub = r.reqs[i%2]
			case opWaitSend:
				r.sub = r.reqs[2+i%3*max(r.nch, 1)+j]
			case opStage:
				// ReduceChain's order: the partial, a copy of my own
				// contribution, then the scratch.
				off, n := r.segment(i)
				own := r.buf.Slice(off, n)
				r.part[0] = *coll.Like(own, n)
				r.part[0].CopyFrom(own)
				r.part[1] = *coll.Like(own, n)
			case opReduce:
				w = p.StartReduce(&r.part[0])
			case opCompute:
				w = p.CloseSmallStretch()
			}
			if w != des.Done {
				return w
			}
		}
		switch r.op {
		case opPublish:
			rights := knem.RightRead
			if r.role == allgatherLeader {
				rights |= knem.RightWrite
			}
			r.ck = post(p, r.lcomm, r.key(), r.buf, rights).ck
		case opWithdraw:
			share{p.Knem(), r.ck}.clear(r.lcomm, r.key())
		case opReduce:
			if w := p.FinishReduce(r.a.Op, r.a.Dtype, &r.part[0], &r.part[1]); w != des.Done {
				return w
			}
		}
		if r.sub != nil {
			if w := r.sub.Step(dp); w != des.Done {
				return w
			}
			switch r.sub = nil; r.op {
			case opLookup:
				r.ck = p.LookedUp().(share).ck
			case opIsend:
				r.reqs[2+i%3*max(r.nch, 1)+j] = r.snd.Request()
			}
		}
	}
}

// key is the blackboard key of r's call.
func (r *roleRun) key() mpi.BBKey {
	op := [...]string{bcastNonLeader: "hkbcast", bcastLeader: "hkbcast", allgatherNonLeader: "hkag", allgatherLeader: "hkag"}
	return mpi.BBKey{Op: op[r.role], Seq: int(r.seq)}
}
