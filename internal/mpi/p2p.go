package mpi

import (
	"fmt"

	"hierknem/internal/buffer"
	"hierknem/internal/des"
	"hierknem/internal/fabric"
	"hierknem/internal/shm"
	"hierknem/internal/topology"
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
	o := r.owner
	if o != nil && o.issuer() != p {
		panic(fmt.Sprintf("mpi: %s waits on a request issued by %s", p.name, o.issuer().name))
	}
	for !r.done {
		// Re-registering after a spurious wake (a latched Wake for some
		// other request) rewrites the same slot.
		r.waiter = p.dp
		p.dp.Park()
	}
	if r.overhead > 0 {
		ov := r.overhead
		r.overhead = 0
		p.dp.Sleep(ov)
	}
	if o != nil {
		r.owner = nil
		p.open--
		o.release()
	}
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
	// WaitAll); allocEnv resets the request on reuse.
	env.bufv = buffer.Buffer{}
	env.po = nil
	env.prev, env.next = nil, nil
	p.envPool = append(p.envPool, env)
}

// allocEnv pops a recycled envelope or mints one. The finish and arrival
// closures are built once per record lifetime, so steady-state messaging
// between established partners allocates only the envelope itself — and not
// even that once the pool is warm.
func (p *Proc) allocEnv() *envelope {
	var env *envelope
	if k := len(p.envPool) - 1; k >= 0 {
		env = p.envPool[k]
		p.envPool[k] = nil
		p.envPool = p.envPool[:k]
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
	p.poPool = append(p.poPool, po)
}

func (p *Proc) allocPosting() *posting {
	var po *posting
	if k := len(p.poPool) - 1; k >= 0 {
		po = p.poPool[k]
		p.poPool[k] = nil
		p.poPool = p.poPool[:k]
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
	dstWorld := c.WorldRank(dst)
	target := p.world.procs[dstWorld]
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

	interNode := p.core.NodeID != target.core.NodeID
	if interNode {
		// Sender-side per-message CPU overhead (LogGP "o"); rendezvous
		// messages additionally pay protocol processing.
		o := p.world.Conf.SendOverhead
		if !env.eager {
			o += p.world.Conf.RendezvousCPU
		}
		p.dp.Sleep(o)
		p.world.BytesCross += env.size
	}

	if env.eager {
		if !interNode {
			// copy-in to the shared segment by the sender core.
			p.shmCopy(p.core, p.core.Socket, p.core.Socket, env.size, env.bufv.ID())
		}
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

// shmCopy charges one intra-node memory copy to core (blocking p) without
// moving payload bytes; callers move data separately.
func (p *Proc) shmCopy(core *topology.Core, srcSock, dstSock *topology.Socket, n int64, srcID uint64) {
	spec := &p.world.Machine.Spec
	if n <= 0 {
		p.dp.Sleep(spec.ShmLatency)
		return
	}
	srcRes, rate := srcSock.ReadSide(spec, srcID, n, core.Socket == srcSock)
	if n < smallCopyCutoff {
		p.dp.Sleep(spec.ShmLatency + float64(n)/rate)
		return
	}
	done := des.AwaitBegin(p.dp, 1)
	p.world.Machine.Fab.StartAfterPath2("copy", spec.ShmLatency, float64(n), rate, srcRes, dstSock.MemBus, done)
	des.AwaitEnd(p.dp)
}

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
