package core

import (
	"hierknem/internal/buffer"
	"hierknem/internal/des"
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
	dev := p.Knem()
	p.Compute(p.World().Machine.Spec.ShmLatency) // registration syscall
	sh := share{dev: dev, ck: dev.Register(buf, p.Core(), rights)}
	lcomm.BBPost(key, sh)
	return sh
}

// withdraw deregisters a published buffer and clears its blackboard slot.
// Callers fence the readers first (a barrier on lcomm).
func (sh share) withdraw(p *mpi.Proc, lcomm *mpi.Comm, key mpi.BBKey) {
	p.Compute(p.World().Machine.Spec.ShmLatency)
	if err := sh.dev.Deregister(sh.ck); err != nil {
		panic(err)
	}
	lcomm.BBClear(key)
}

// lookup waits for the share posted on lcomm under key, after the cookie
// lookup's kernel entry.
func lookup(p *mpi.Proc, lcomm *mpi.Comm, key mpi.BBKey) share {
	return lcomm.BBWaitAfter(p, p.World().Machine.Spec.ShmLatency, key).(share)
}

// lookupStep is lookup as a sub-step (mpi.Comm.LookupStep); the share is
// p.LookedUp() once it has reported Done.
func lookupStep(p *mpi.Proc, lcomm *mpi.Comm, key mpi.BBKey) des.Stepper {
	return lcomm.LookupStep(p, p.World().Machine.Spec.ShmLatency, key)
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
