package mpi

import (
	"fmt"

	"hierknem/internal/buffer"
	"hierknem/internal/des"
	"hierknem/internal/fabric"
	"hierknem/internal/shm"
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
	dstWorld int32  // the destination's world rank
	finishFn func() // cached across reuses: finishTransfer(env)
	arriveFn func() // cached across reuses: eager arrival marker

	// sentAt is the virtual time Isend was called (stall autopsy).
	sentAt float64

	// hnext is the intrusive link in the destination's key-hash chain (see
	// envIndex) and, while the record is pooled, in the sender's free list.
	hnext *envelope
}

func (env *envelope) release() {
	if env.refs--; env.refs > 0 {
		return
	}
	p := env.sender
	// allocEnv resets the request on reuse. A pooled record is in no
	// key-hash chain, so hnext links the sender's free list.
	env.bufv = buffer.Buffer{}
	env.po = nil
	env.hnext = p.envFree
	p.envFree = env
}

// allocEnv pops a recycled envelope or mints one. The finish and arrival
// closures are built once per record lifetime, so steady-state messaging
// between established partners allocates only the envelope itself — and not
// even that once the pool is warm.
func (p *Proc) allocEnv() *envelope {
	env := p.envFree
	if env != nil {
		p.envFree, env.hnext = env.hnext, nil
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
	return env
}

func (env *envelope) issuer() *Proc { return env.sender }

// posting is a posted receive awaiting a match. Postings are refcounted and
// recycled through the receiver's free list, like envelopes.
type posting struct {
	srcWorld int
	tag      int
	ctx      int
	bufv     buffer.Buffer // header copy; data shared with the caller's buffer
	req      Request       // embedded: no per-posting Request allocation
	receiver *Proc
	hnext    *posting // intrusive link in the receiver's key-hash chain (see postIndex)
	refs     int32    // outstanding references; at 0 the record recycles

	// postedAt is the virtual time Irecv was called (stall autopsy).
	postedAt float64
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
	return po
}

func (po *posting) issuer() *Proc { return po.receiver }

// badPeer panics for a send or receive whose peer is not a rank of c or
// whose tag is negative. There are no wildcards, so such a call could match
// nothing; the message names the call instead of a distant deadlock.
func (p *Proc) badPeer(op string, c *Comm, peer, tag int) {
	panic(fmt.Sprintf("mpi: %s %s %d with tag %d: the peer must be a rank of the %d-rank communicator and the tag non-negative",
		p.name, op, peer, tag, c.Size()))
}

// Isend starts a non-blocking send of buf to dst, a rank of c, with tag. A
// destination outside c or a negative tag panics. It is StartSend, the
// sender-side charge, and Send.Step, driven on the rank.
func (p *Proc) Isend(c *Comm, buf *buffer.Buffer, dst, tag int) *Request {
	s, w := p.StartSend(c, buf, dst, tag)
	p.dp.Suspend(w)
	for s.Step(p.dp) != des.Done {
		p.dp.Park()
	}
	return s.Request()
}

// Send is one Isend between its start and its hand-off to the destination.
// StartSend begins it and returns the sender-side charge as a wait; once
// that is over, Step hands the message on, and Request is the send's
// request. A caller that runs the send inside its own stepped wait keeps
// the Send in its state and drives Step as a sub-step (see des.Stepper).
type Send struct {
	env *envelope
}

// StartSend fills the envelope of a send of buf to dst, a rank of c, with
// tag, and starts the sender-side charge, the CPU the send costs the
// sender before the message is handed on. It returns the send and that
// charge as a wait: over the network a sleep of the per-message overhead
// (LogGP "o", plus protocol processing for rendezvous); within the node a
// sleep of the eager copy-in to the shared segment below the bypass cutoff,
// Parked on its fabric flow at or above it (in a small stretch too: the
// stretch bounds the collective's own copies, not the transport's, see
// SmallIntraNode), and Done for a single-copy rendezvous, which charges
// nothing.
func (p *Proc) StartSend(c *Comm, buf *buffer.Buffer, dst, tag int) (Send, des.Wait) {
	if dst < 0 || dst >= c.Size() || tag < 0 {
		p.badPeer("Isend to destination", c, dst, tag)
	}
	dstWorld := c.WorldRank(dst)
	target := p.world.procs[dstWorld]
	env := p.allocEnv()
	p.open++
	env.srcWorld = p.rank
	env.dstWorld = int32(dstWorld)
	env.tag = tag
	env.ctx = c.ctx
	env.bufv = *buf
	env.size = buf.Len()
	env.eager = env.size < p.world.eagerThreshold
	if env.eager {
		// Buffered: the send completes before its payload is delivered,
		// and the sender may reuse buf from then on.
		env.bufv = buf.Snapshot()
	}
	env.sentAt = p.dp.Now()
	s := Send{env}
	if p.core.NodeID != target.core.NodeID {
		o := p.world.Conf.SendOverhead
		if !env.eager {
			o += p.world.Conf.RendezvousCPU
		}
		return s, des.SleepFor(o)
	}
	switch {
	case !env.eager:
		return s, des.Done
	case env.size < smallCopyCutoff:
		return s, des.SleepFor(shm.CopyTime(p.world.Machine, p.core, p.core.Socket, env.size, env.bufv.ID()))
	}
	return s, shm.StartCopyFlow(p.dp, p.world.Machine, p.core, p.core.Socket, p.core.Socket, env.size, env.bufv.ID())
}

// Step ends the send once the wait StartSend returned is over: Parked while
// an eager copy-in's flow runs, then it hands the message on to the
// destination and returns Done.
func (s *Send) Step(dp *des.Proc) des.Wait {
	if w := des.AwaitStep(dp); w != des.Done {
		return w
	}
	env := s.env
	p := env.sender
	target := p.world.procs[env.dstWorld]
	interNode := p.core.NodeID != target.core.NodeID
	if interNode {
		p.world.BytesCross += env.size
	}
	if env.eager {
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
	return des.Done
}

// Request returns the send's request, once Step has reported Done.
func (s *Send) Request() *Request { return &s.env.sendReq }

// Send is the blocking form of Isend.
func (p *Proc) Send(c *Comm, buf *buffer.Buffer, dst, tag int) {
	p.Wait(p.Isend(c, buf, dst, tag))
}

// Irecv starts a non-blocking receive into buf from src, a rank of c, with
// tag. There are no wildcards: a source outside c or a negative tag panics.
func (p *Proc) Irecv(c *Comm, buf *buffer.Buffer, src, tag int) *Request {
	if src < 0 || src >= c.Size() || tag < 0 {
		p.badPeer("Irecv from source", c, src, tag)
	}
	po := p.allocPosting()
	p.open++
	po.srcWorld = c.WorldRank(src)
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
// the transports allow it. It is StartSendRecv run as one stepped wait, in
// p's stepped-wait record, so p is switched into once, when both are over.
func (p *Proc) SendRecv(c *Comm, sendBuf *buffer.Buffer, dst, sendTag int, recvBuf *buffer.Buffer, src, recvTag int) {
	s := p.waitStep()
	s.x = p.StartSendRecv(c, sendBuf, dst, sendTag, recvBuf, src, recvTag)
	p.dp.Steps(&s.x)
	s.x = SendRecv{}
}

// A SendRecv is Proc.SendRecv as a stepped half. StartSendRecv posts the
// receive and starts the send; Step then sits out the send's charge, hands
// the message on (Send.Step), waits on the receive, then on the send
// (Request.Step): SendRecv's phases in its order. A caller keeps it in its
// own stepped wait's state and drives Step as a sub-step.
type SendRecv struct {
	r      *Request
	snd    Send
	charge des.Wait // the send's charge (see StartSend), until Step returns it
	phase  uint8
}

// StartSendRecv posts the receive of recvBuf from src with recvTag and
// starts the send of sendBuf to dst with sendTag.
func (p *Proc) StartSendRecv(c *Comm, sendBuf *buffer.Buffer, dst, sendTag int, recvBuf *buffer.Buffer, src, recvTag int) SendRecv {
	r := p.Irecv(c, recvBuf, src, recvTag)
	snd, w := p.StartSend(c, sendBuf, dst, sendTag)
	return SendRecv{r: r, snd: snd, charge: w}
}

// Step advances the exchange (des.Stepper).
func (x *SendRecv) Step(dp *des.Proc) des.Wait {
	switch x.phase {
	case 0:
		x.phase = 1
		if x.charge != des.Done {
			return x.charge
		}
		fallthrough
	case 1:
		if w := x.snd.Step(dp); w != des.Done {
			return w
		}
		x.phase = 2
		fallthrough
	case 2:
		if w := x.r.Step(dp); w != des.Done {
			return w
		}
		x.phase = 3
	}
	return x.snd.Request().Step(dp)
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
	w.Machine.Fab.StartAfter("net", delay, float64(env.size), 0, w.netPath(env.sender, po.receiver), finish)
}

// finishTransfer delivers a matched transfer's payload, completes both
// requests, and drops the protocol references so the records can recycle.
func (w *World) finishTransfer(env *envelope) {
	po := env.po
	po.bufv.CopyFrom(&env.bufv)
	po.receiver.core.Socket.Touch(po.bufv.ID(), po.bufv.Len())
	env.sendReq.complete()
	po.req.complete()
	po.release()
	env.release()
}

// eagerFlight launches the wire transfer of an eager inter-node message.
func (w *World) eagerFlight(env *envelope, target *Proc, onArrive func()) {
	spec := &w.Machine.Spec
	w.Machine.Fab.StartAfter("net", spec.NetLatency, float64(env.size), 0,
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
