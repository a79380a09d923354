package mpi

import (
	"fmt"

	"hierknem/internal/buffer"
	"hierknem/internal/des"
	"hierknem/internal/fabric"
	"hierknem/internal/shm"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Request tracks a pending non-blocking operation. A Request is single-use:
// it must not be waited on or read after Wait has returned for it (the
// containing record is recycled). Only the rank that issued it may wait on
// it, and it must: World.Run reports a rank body that returns holding an
// uncollected request (see UncollectedError).
type Request struct {
	done bool
	// waiter is the issuing process while it is parked on the request.
	waiter *des.Proc
	// overhead is per-message protocol CPU charged to the waiter once,
	// when it collects the completed request (LogGP's receiver "o").
	overhead float64
	// owner is the pooled record (envelope or posting) this request is
	// embedded in. Wait drops the caller's reference through it once the
	// completion has been collected.
	owner releaser
}

// releaser is a pooled record that counts outstanding references; issuer
// is the rank whose Isend or Irecv minted it.
type releaser interface {
	release()
	issuer() *Proc
}

// Done reports completion (for Test-style polling).
func (r *Request) Done() bool { return r.done }

func (r *Request) complete() {
	if r.done {
		return
	}
	r.done = true
	if r.waiter != nil {
		r.waiter.Wake()
		r.waiter = nil
	}
}

// Wait blocks until the request completes, then absorbs any per-message
// protocol CPU attached to it and collects it. It panics when p did not
// issue r: a request has exactly one waiter, its issuer.
func (p *Proc) Wait(r *Request) {
	if o := r.owner; o != nil && o.issuer() != p {
		panic(fmt.Sprintf("mpi: %s waits on a request issued by %s", p.name, o.issuer().name))
	}
	p.dp.Steps(r)
}

// Step is Wait as a stepped wait (des.Stepper): park until r completes,
// sleep off its protocol CPU, collect it.
func (r *Request) Step(dp *des.Proc) des.Wait {
	if !r.done {
		// Re-registering after a spurious wake (a latched Wake for some
		// other request) rewrites the same slot.
		r.waiter = dp
		return des.Parked
	}
	if r.overhead > 0 {
		ov := r.overhead
		r.overhead = 0
		return des.SleepFor(ov)
	}
	if o := r.owner; o != nil {
		r.owner = nil
		o.issuer().open--
		o.release()
	}
	return des.Done
}

// WaitAll blocks until every request completes.
func (p *Proc) WaitAll(rs ...*Request) {
	for _, r := range rs {
		if r != nil {
			p.Wait(r)
		}
	}
}

// envelope is a message announced to (or arrived at) the destination.
// Envelopes are refcounted and recycled through the sender's free list: one
// reference belongs to the *Request handed to the caller (dropped when Wait
// collects it), one to the transfer protocol (dropped by finishTransfer),
// and a transient one to an in-flight eager arrival marker.
type envelope struct {
	srcWorld  int
	tag       int
	ctx       int
	bufv      buffer.Buffer // sender's payload view (header copy; data shared)
	size      int64
	eager     bool
	arrived   bool    // eager inter-node payload landed before a recv was posted
	preposted bool    // the receive was already posted when the send started
	sendReq   Request // embedded: no per-message Request allocation
	sender    *Proc
	po        *posting // matched receive, set for the duration of the transfer

	refs     int32  // outstanding references; at 0 the record recycles
	finishFn func() // cached across reuses: finishTransfer(env)
	arriveFn func() // cached across reuses: eager arrival marker

	// sentAt is the virtual time Isend was called (stall autopsy); sanRead
	// is the sanitizer's open read window on the payload, -1 when none.
	sentAt  float64
	sanRead int

	// intrusive links in the destination's unexpected arrival-order list
	// and key-hash chain (see envIndex).
	prev, next, hnext *envelope
}

func (env *envelope) release() {
	if env.refs--; env.refs > 0 {
		return
	}
	p := env.sender
	// sendReq.done is deliberately left set (callers may poll Done after
	// WaitAll); allocEnv resets the request on reuse. A pooled record is in
	// no arrival list, so next links the sender's free list.
	env.bufv = buffer.Buffer{}
	env.po = nil
	env.prev, env.next = nil, p.envFree
	p.envFree = env
}

// allocEnv pops a recycled envelope or mints one. The finish and arrival
// closures are built once per record lifetime, so steady-state messaging
// between established partners allocates only the envelope itself — and not
// even that once the pool is warm.
func (p *Proc) allocEnv() *envelope {
	env := p.envFree
	if env != nil {
		p.envFree, env.next = env.next, nil
		env.sendReq = Request{owner: env}
		env.arrived = false
		env.preposted = false
	} else {
		env = &envelope{sender: p}
		env.sendReq.owner = env
		env.finishFn = func() { p.world.finishTransfer(env) }
		env.arriveFn = func() { env.arrived = true; env.release() }
	}
	env.refs = 2 // the caller's *Request + the transfer's finish
	env.sanRead = -1
	return env
}

func (env *envelope) issuer() *Proc { return env.sender }

// posting is a posted receive awaiting a match. Postings are refcounted and
// recycled through the receiver's free list, like envelopes.
type posting struct {
	srcWorld int // world rank or AnySource
	tag      int
	ctx      int
	bufv     buffer.Buffer // header copy; data shared with the caller's buffer
	req      Request       // embedded: no per-posting Request allocation
	receiver *Proc
	seq      uint64   // posting order within the receiver (see postIndex)
	hnext    *posting // intrusive link in the receiver's key-hash chain (see postIndex)
	refs     int32    // outstanding references; at 0 the record recycles

	// postedAt is the virtual time Irecv was called (stall autopsy);
	// sanWrite is the sanitizer's open write window on the receive buffer,
	// -1 when none.
	postedAt float64
	sanWrite int
}

func (po *posting) release() {
	if po.refs--; po.refs > 0 {
		return
	}
	p := po.receiver
	po.bufv = buffer.Buffer{}
	// A pooled record is in no key-hash chain, so hnext links the
	// receiver's free list.
	po.hnext = p.poFree
	p.poFree = po
}

func (p *Proc) allocPosting() *posting {
	po := p.poFree
	if po != nil {
		p.poFree, po.hnext = po.hnext, nil
		po.req = Request{owner: po}
	} else {
		po = &posting{receiver: p}
		po.req.owner = po
	}
	po.refs = 2 // the caller's *Request + the transfer's finish
	po.sanWrite = -1
	return po
}

func (po *posting) issuer() *Proc { return po.receiver }

func (env *envelope) matches(po *posting) bool {
	return env.ctx == po.ctx &&
		(po.srcWorld == AnySource || po.srcWorld == env.srcWorld) &&
		(po.tag == AnyTag || po.tag == env.tag)
}

// Isend starts a non-blocking send of buf to dst (a rank of c) with tag.
func (p *Proc) Isend(c *Comm, buf *buffer.Buffer, dst, tag int) *Request {
	env, target := p.isendHead(c, buf, dst, tag)
	if d, ok := p.sendSleep(env, target); ok {
		p.dp.Sleep(d)
	} else if env.eager {
		// A copy-in at or above the bypass cutoff is a fabric flow, in a
		// small stretch too: the stretch bounds the collective's own
		// copies, not the transport's (see SmallIntraNode).
		shm.CopyFlow(p.dp, p.world.Machine, p.core, p.core.Socket, p.core.Socket, env.size, env.bufv.ID())
	}
	return p.isendTail(env, target)
}

// isendHead is Isend up to the sender-side charge: it fills the envelope of
// a send to dst and returns it with the destination rank.
func (p *Proc) isendHead(c *Comm, buf *buffer.Buffer, dst, tag int) (*envelope, *Proc) {
	target := p.world.procs[c.WorldRank(dst)]
	env := p.allocEnv()
	p.open++
	env.srcWorld = p.rank
	env.tag = tag
	env.ctx = c.ctx
	env.bufv = *buf
	env.size = buf.Len()
	env.eager = env.size < p.world.eagerThreshold
	env.sentAt = p.dp.Now()
	if s := p.world.san; s != nil {
		// The payload is read from Isend until the sender is free: end of
		// Isend for eager (buffered), transfer completion for rendezvous.
		env.sanRead = s.BeginAccess(p.dp.ID(), p.name, buf.ID(), buf.Off(), env.size, false)
	}
	return env, target
}

// sendSleep returns the sender-side charge of env, the CPU its Isend costs
// the sender before the message is handed on, when that charge is a plain
// sleep: the per-message overhead over the network (LogGP "o", plus protocol
// processing for rendezvous), or an eager copy-in to the shared segment
// below the bypass cutoff. It reports false for a single-copy intra-node
// rendezvous, which charges nothing, and for an eager copy-in at or above
// the cutoff, which is a fabric flow.
func (p *Proc) sendSleep(env *envelope, target *Proc) (float64, bool) {
	if p.core.NodeID != target.core.NodeID {
		o := p.world.Conf.SendOverhead
		if !env.eager {
			o += p.world.Conf.RendezvousCPU
		}
		return o, true
	}
	if !env.eager || env.size >= smallCopyCutoff {
		return 0, false
	}
	return shm.CopyTime(p.world.Machine, p.core, p.core.Socket, env.size, env.bufv.ID()), true
}

// isendTail is Isend after the sender-side charge: it hands env on to
// target and returns the send's request.
func (p *Proc) isendTail(env *envelope, target *Proc) *Request {
	interNode := p.core.NodeID != target.core.NodeID
	if interNode {
		p.world.BytesCross += env.size
	}
	if env.eager {
		if s := p.world.san; s != nil && env.sanRead >= 0 {
			s.EndAccess(env.sanRead) // buffered: the payload is captured
			env.sanRead = -1
		}
		env.sendReq.complete() // buffered: sender is free
	}

	if po := target.posted.match(env); po != nil {
		// The receive was preposted: a rendezvous can start immediately
		// (the RTS finds a waiting match), so no handshake round trip.
		env.preposted = true
		p.world.startTransfer(env, po)
	} else {
		if env.eager && interNode {
			// The payload crosses the wire immediately; mark arrival so a
			// late receive only pays the unload, not the flight. The marker
			// holds its own reference: it may fire after the transfer is
			// done and must not touch a recycled record.
			env.refs++
			p.world.eagerFlight(env, target, env.arriveFn)
		}
		target.unexpected.add(env)
	}
	return &env.sendReq
}

// Send is the blocking form of Isend.
func (p *Proc) Send(c *Comm, buf *buffer.Buffer, dst, tag int) {
	p.Wait(p.Isend(c, buf, dst, tag))
}

// Irecv starts a non-blocking receive into buf from src (rank of c, or
// AnySource) with tag (or AnyTag).
func (p *Proc) Irecv(c *Comm, buf *buffer.Buffer, src, tag int) *Request {
	srcWorld := src
	if src != AnySource {
		srcWorld = c.WorldRank(src)
	}
	po := p.allocPosting()
	p.open++
	po.srcWorld = srcWorld
	po.tag = tag
	po.ctx = c.ctx
	po.bufv = *buf
	po.postedAt = p.dp.Now()
	if env := p.unexpected.match(po); env != nil {
		p.world.startTransfer(env, po)
	} else {
		p.posted.add(po)
	}
	return &po.req
}

// Recv is the blocking form of Irecv.
func (p *Proc) Recv(c *Comm, buf *buffer.Buffer, src, tag int) {
	p.Wait(p.Irecv(c, buf, src, tag))
}

// SendRecv posts the receive, sends, then waits on both — full-duplex when
// the transports allow it.
func (p *Proc) SendRecv(c *Comm, sendBuf *buffer.Buffer, dst, sendTag int, recvBuf *buffer.Buffer, src, recvTag int) {
	r := p.Irecv(c, recvBuf, src, recvTag)
	s := p.Isend(c, sendBuf, dst, sendTag)
	p.Wait(r)
	p.Wait(s)
}

// smallCopyCutoff is the size below which intra-node copies bypass the
// fabric: a sub-4 KiB copy lasts ~1 µs and contributes negligible bus load,
// while installing a flow for it costs a full max-min recomputation. Fine-
// grained workloads (ring exchanges of tiny blocks across hundreds of ranks)
// would otherwise spend almost all simulation wall time in the fabric. The
// canonical constant lives in shm so the transports and the SmallIntraNode
// selector agree.
const smallCopyCutoff = shm.SmallCopyCutoff

// startTransfer moves the payload for a matched (envelope, posting) pair and
// completes the requests. Runs in engine context.
func (w *World) startTransfer(env *envelope, po *posting) {
	if env.size != po.bufv.Len() {
		panic(fmt.Sprintf("mpi: send size %d != recv size %d (src %d tag %d)",
			env.size, po.bufv.Len(), env.srcWorld, env.tag))
	}
	env.po = po
	if s := w.san; s != nil {
		// The receive buffer is written for the duration of the transfer.
		// The window belongs to the *receiver*: completion wakes the
		// receiver, so its later accesses are ordered by the edge
		// finishTransfer records, and so are accesses of any rank the
		// receiver subsequently synchronizes with.
		po.sanWrite = s.BeginAccess(po.receiver.dp.ID(), po.receiver.name,
			po.bufv.ID(), po.bufv.Off(), po.bufv.Len(), true)
	}
	src := env.sender.core
	dst := po.receiver.core
	spec := &w.Machine.Spec
	finish := env.finishFn

	if src.NodeID == dst.NodeID {
		if env.eager {
			// copy-out from the shared segment by the receiver core; the
			// copy-in already happened at Isend time (bounce buffers are
			// not tracked for residency). Small copies bypass the fabric
			// (see smallCopyCutoff).
			rate := spec.CoreCopyBandwidth
			if env.size < smallCopyCutoff {
				w.Machine.Eng.After(spec.ShmLatency+float64(env.size)/rate, finish)
				return
			}
			w.Machine.Fab.StartAfterPath2("copy", spec.ShmLatency, float64(env.size), rate,
				src.Socket.MemBus, dst.Socket.MemBus, finish)
			return
		}
		// KNEM LMT single copy, executed by the receiver core.
		srcRes, rate := src.Socket.ReadSide(spec, env.bufv.ID(), env.size, src.Socket == dst.Socket)
		w.Machine.Fab.StartAfterPath2("copy", spec.ShmLatency, float64(env.size), rate,
			srcRes, dst.Socket.MemBus, finish)
		return
	}

	if env.eager {
		if env.arrived {
			// Payload already landed; unloading is effectively free.
			w.Machine.Eng.At(w.Machine.Eng.Now(), finish)
			return
		}
		w.eagerFlight(env, po.receiver, finish)
		return
	}
	// Rendezvous: the data flow, preceded by a handshake round trip when
	// the receive was not preposted (the sender's RTS had to wait for the
	// match before the CTS could be issued). The receiver pays protocol
	// CPU when it collects the completion.
	po.req.overhead = w.Conf.RendezvousCPU
	delay := spec.NetLatency
	if !env.preposted {
		delay += spec.NetLatency
	}
	w.Machine.Fab.StartAfterClassed("net", delay, float64(env.size), 0, w.netPath(env.sender, po.receiver), finish)
}

// finishTransfer delivers a matched transfer's payload, completes both
// requests, and drops the protocol references so the records can recycle.
func (w *World) finishTransfer(env *envelope) {
	po := env.po
	po.bufv.CopyFrom(&env.bufv)
	po.receiver.core.Socket.Touch(po.bufv.ID(), po.bufv.Len())
	if s := w.san; s != nil {
		if po.sanWrite >= 0 {
			s.EndAccess(po.sanWrite)
			po.sanWrite = -1
		}
		if env.sanRead >= 0 {
			s.EndAccess(env.sanRead)
			env.sanRead = -1
		}
		// Message completion is a sync edge: whatever the receiver (or a
		// rank it transitively synchronizes with at this instant) does
		// next is ordered after this transfer's windows.
		s.SyncEdge(env.sender.dp.ID(), po.receiver.dp.ID())
	}
	env.sendReq.complete()
	po.req.complete()
	po.release()
	env.release()
}

// eagerFlight launches the wire transfer of an eager inter-node message.
func (w *World) eagerFlight(env *envelope, target *Proc, onArrive func()) {
	spec := &w.Machine.Spec
	w.Machine.Fab.StartAfterClassed("net", spec.NetLatency, float64(env.size), 0,
		w.netPath(env.sender, target), onArrive)
}

// netPath is the resource chain of an inter-node transfer: source memory
// bus, source NIC TX, destination NIC RX, destination memory bus. Every
// resource on it is a property of the endpoints' sockets (the bus) and
// nodes (the NICs), so paths are cached per (source socket,
// destination socket) pair — O(sockets²) entries where a rank-pair key
// would hold O(ranks²). The fabric only reads Flow.Path, so concurrent
// flows can share one slice, and steady-state messaging allocates no path.
func (w *World) netPath(src, dst *Proc) []*fabric.Resource {
	// Flat integer keys hit the runtime's fast map path, where a struct
	// key would go through generic key hashing.
	ss, ds := src.core.Socket, dst.core.Socket
	perNode := uint64(len(w.Machine.Nodes[0].Sockets))
	nsock := uint64(len(w.Machine.Nodes)) * perNode
	key := (uint64(ss.NodeID)*perNode+uint64(ss.ID))*nsock +
		uint64(ds.NodeID)*perNode + uint64(ds.ID)
	if path, ok := w.netPaths[key]; ok {
		return path
	}
	sn := w.Machine.Nodes[src.core.NodeID]
	dn := w.Machine.Nodes[dst.core.NodeID]
	path := []*fabric.Resource{src.core.Socket.MemBus, sn.NicTx, dn.NicRx, dst.core.Socket.MemBus}
	if w.netPaths == nil {
		w.netPaths = make(map[uint64][]*fabric.Resource)
	}
	w.netPaths[key] = path
	return path
}
