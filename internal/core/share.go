package core

import (
	"hierknem/internal/buffer"
	"hierknem/internal/hier"
	"hierknem/internal/knem"
	"hierknem/internal/mpi"
)

// share is HierKNEM's one intra-node mechanism: a leader registers a buffer
// with its node's KNEM device and posts the cookie on the node
// communicator's blackboard; the node's other ranks look it up and copy
// from or into the buffer one-sided. Every step that enters the kernel
// (registration, deregistration, cookie lookup) charges one ShmLatency.
type share struct {
	dev *knem.Device
	ck  knem.Cookie
}

// publish registers buf with p's node device under rights and posts the
// cookie on lcomm under key.
func publish(p *mpi.Proc, lcomm *mpi.Comm, key mpi.BBKey, buf *buffer.Buffer, rights knem.Rights) share {
	p.Compute(p.World().Machine.Spec.ShmLatency) // registration syscall
	return post(p, lcomm, key, buf, rights)
}

// post is publish once its syscall is charged.
func post(p *mpi.Proc, lcomm *mpi.Comm, key mpi.BBKey, buf *buffer.Buffer, rights knem.Rights) share {
	dev := p.Knem()
	sh := share{dev: dev, ck: dev.Register(buf, p.Core(), rights)}
	lcomm.BBPost(key, sh)
	return sh
}

// withdraw deregisters a published buffer and clears its blackboard slot.
// Callers fence the readers first (a barrier on lcomm).
func (sh share) withdraw(p *mpi.Proc, lcomm *mpi.Comm, key mpi.BBKey) {
	p.Compute(p.World().Machine.Spec.ShmLatency)
	sh.clear(lcomm, key)
}

// clear is withdraw once its syscall is charged.
func (sh share) clear(lcomm *mpi.Comm, key mpi.BBKey) {
	if err := sh.dev.Deregister(sh.ck); err != nil {
		panic(err)
	}
	lcomm.BBClear(key)
}

// fanOut is the one-sided intra-node fan-out: the node leader publishes
// src, opens the fetches with one lcomm barrier, fences them with a second
// and withdraws the share; every other rank looks the share up, waits for
// the first barrier, fetches dst.Len() bytes at offset off into dst and
// joins the second. It runs as a small stretch (mpi.SmallIntraNode) of
// dst.Len()-byte messages, so the leader passes a dst of that length too.
func fanOut(p *mpi.Proc, hy *hier.Hierarchy, key mpi.BBKey, src *buffer.Buffer, off int64, dst *buffer.Buffer) {
	lcomm := hy.LComm
	p.BeginSmallStretch(lcomm, dst.Len())
	if hy.IsLeader {
		sh := publish(p, lcomm, key, src, knem.RightRead)
		lcomm.Barrier(p) // non-leaders may fetch
		lcomm.Barrier(p) // fetches complete
		sh.withdraw(p, lcomm, key)
	} else {
		sh := lookup(p, lcomm, key)
		lcomm.Barrier(p)
		sh.get(p, off, dst)
		lcomm.Barrier(p)
	}
	p.EndSmallStretch()
}

// lookup waits for the share posted on lcomm under key, after the cookie
// lookup's kernel entry.
func lookup(p *mpi.Proc, lcomm *mpi.Comm, key mpi.BBKey) share {
	return lcomm.BBWaitAfter(p, p.World().Machine.Spec.ShmLatency, key).(share)
}

// get copies dst.Len() bytes from offset off of the shared buffer into dst.
func (sh share) get(p *mpi.Proc, off int64, dst *buffer.Buffer) {
	if err := sh.dev.Get(p.DES(), p.Core(), sh.ck, off, dst); err != nil {
		panic(err)
	}
}

// put copies src into the shared buffer at offset off.
func (sh share) put(p *mpi.Proc, off int64, src *buffer.Buffer) {
	if err := sh.dev.Put(p.DES(), p.Core(), sh.ck, off, src); err != nil {
		panic(err)
	}
}
