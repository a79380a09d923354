// Package knem simulates the KNEM Linux kernel module: single-copy,
// one-sided intra-node data movement with direction control.
//
// A process registers a buffer with its node's device and receives a cookie;
// any process on the same node holding the cookie can then Get (read) from
// or Put (write) to the registered region, subject to the access rights
// granted at registration. The defining property — the one HierKNEM exploits
// — is that the copy is executed by the *requesting* core: the buffer's
// owner spends no cycles, so a leader can keep forwarding on the network
// while every non-leader pulls its own data.
package knem

import (
	"fmt"

	"hierknem/internal/buffer"
	"hierknem/internal/des"
	"hierknem/internal/shm"
	"hierknem/internal/topology"
)

// Rights restricts what cookie holders may do with a region, mirroring
// KNEM's direction control.
type Rights int

const (
	// RightRead allows Get (remote process reads the region).
	RightRead Rights = 1 << iota
	// RightWrite allows Put (remote process writes the region).
	RightWrite
)

// Cookie identifies a registered region on one node's device.
type Cookie uint64

// Stats aggregates device activity for the trace layer.
type Stats struct {
	Registrations   int64
	Deregistrations int64
	Gets, Puts      int64
	BytesCopied     int64
}

type region struct {
	buf    *buffer.Buffer
	owner  *topology.Core
	rights Rights
}

// Device is one node's KNEM kernel module instance.
type Device struct {
	nodeID  int
	machine *topology.Machine
	regions map[Cookie]*region
	next    Cookie
	stats   Stats
}

// NewDevice creates the device for node nodeID of m.
func NewDevice(m *topology.Machine, nodeID int) *Device {
	return &Device{nodeID: nodeID, machine: m, regions: make(map[Cookie]*region), next: 1}
}

// Reset drops all registrations and counters, returning the device to its
// post-NewDevice state for reuse by a consecutive run on the same machine.
// Cookies restart at 1, matching a fresh device cookie-for-cookie.
func (d *Device) Reset() {
	clear(d.regions)
	d.next = 1
	d.stats = Stats{}
}

// Stats returns a copy of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// Register pins buf (owned by the process on owner) into the device and
// returns its cookie. The registration itself is cheap; its cost is paid by
// the caller as part of the surrounding protocol (a Sleep of ShmLatency,
// matching a syscall + page pinning).
func (d *Device) Register(buf *buffer.Buffer, owner *topology.Core, rights Rights) Cookie {
	if owner.NodeID != d.nodeID {
		panic(fmt.Sprintf("knem: registering buffer owned by node %d core on node %d device",
			owner.NodeID, d.nodeID))
	}
	ck := d.next
	d.next++
	d.regions[ck] = &region{buf: buf, owner: owner, rights: rights}
	d.stats.Registrations++
	return ck
}

// Deregister unpins a region. Outstanding cookies become invalid.
func (d *Device) Deregister(ck Cookie) error {
	if _, ok := d.regions[ck]; !ok {
		return fmt.Errorf("knem: deregister of unknown cookie %d on node %d", ck, d.nodeID)
	}
	delete(d.regions, ck)
	d.stats.Deregistrations++
	return nil
}

func (d *Device) lookup(ck Cookie, want Rights, requester *topology.Core) (*region, error) {
	if requester.NodeID != d.nodeID {
		return nil, fmt.Errorf("knem: cross-node access: requester on node %d, device on node %d",
			requester.NodeID, d.nodeID)
	}
	reg, ok := d.regions[ck]
	if !ok {
		return nil, fmt.Errorf("knem: unknown cookie %d on node %d", ck, d.nodeID)
	}
	if reg.rights&want == 0 {
		return nil, fmt.Errorf("knem: cookie %d does not grant %s access", ck, rightsName(want))
	}
	return reg, nil
}

func rightsName(r Rights) string {
	switch r {
	case RightRead:
		return "read"
	case RightWrite:
		return "write"
	default:
		return fmt.Sprintf("rights(%d)", int(r))
	}
}

// Get copies dst.Len() bytes starting at offset off of the registered region
// into dst. The copy is one-sided: it blocks only p (the requester, running
// on requester's core); the region owner is not involved. Returns an error
// for bad cookies, rights, bounds or cross-node access.
func (d *Device) Get(p *des.Proc, requester *topology.Core, ck Cookie, off int64, dst *buffer.Buffer) error {
	c, w, err := d.StartGet(p, requester, ck, off, dst, 0, dst.Len())
	if err != nil {
		return err
	}
	c.block(p, w)
	return nil
}

// Put copies src into the registered region at offset off. Like Get it is
// one-sided, blocking only the requester.
func (d *Device) Put(p *des.Proc, requester *topology.Core, ck Cookie, off int64, src *buffer.Buffer) error {
	c, w, err := d.StartPut(p, requester, ck, off, src)
	if err != nil {
		return err
	}
	c.block(p, w)
	return nil
}

// Copy is one Get or Put between its start and its finish. StartGet (or
// StartPut) begins it and returns the first wait the copy needs;
// once that is over, Step ends it. A caller that runs the copy inside its
// own stepped wait keeps the Copy in its state and drives Step as a
// sub-step (see des.Stepper); Get and Put drive it on the process. The
// ranges are kept as offsets into whole buffers, so a caller copying
// segment after segment of one buffer carves no slices.
type Copy struct {
	dev            *Device
	src, dst       *buffer.Buffer
	srcOff, dstOff int64
	n              int64
	sock           *topology.Socket // whose L3 the written bytes warm
	put            bool
}

// StartGet begins Get's copy of n bytes from offset off of the region into
// dst at dstOff: the cookie, rights and bounds checks and the start of the
// copy. It returns the copy and the wait it needs first, or an error and no
// copy. The Copy comes back by value, so a blocking caller's buffers can
// stay on its stack.
func (d *Device) StartGet(p *des.Proc, requester *topology.Core, ck Cookie, off int64, dst *buffer.Buffer, dstOff, n int64) (Copy, des.Wait, error) {
	reg, err := d.lookup(ck, RightRead, requester)
	if err != nil {
		return Copy{}, 0, err
	}
	if off < 0 || off+n > reg.buf.Len() {
		return Copy{}, 0, fmt.Errorf("knem: get [%d:%d] outside region of %d bytes", off, off+n, reg.buf.Len())
	}
	c := Copy{dev: d, src: reg.buf, srcOff: off, dst: dst, dstOff: dstOff, n: n, sock: requester.Socket}
	w := d.start(p, &c, requester, reg.owner.Socket, requester.Socket)
	return c, w, nil
}

// StartPut begins Put's copy of src into the region at offset off, as
// StartGet does for a get.
func (d *Device) StartPut(p *des.Proc, requester *topology.Core, ck Cookie, off int64, src *buffer.Buffer) (Copy, des.Wait, error) {
	n := src.Len()
	reg, err := d.lookup(ck, RightWrite, requester)
	if err != nil {
		return Copy{}, 0, err
	}
	if off < 0 || off+n > reg.buf.Len() {
		return Copy{}, 0, fmt.Errorf("knem: put [%d:%d] outside region of %d bytes", off, off+n, reg.buf.Len())
	}
	c := Copy{dev: d, src: src, dst: reg.buf, dstOff: off, n: n, sock: reg.owner.Socket, put: true}
	w := d.start(p, &c, requester, requester.Socket, reg.owner.Socket)
	return c, w, nil
}

// start starts c's copy by the requesting core from srcSock to dstSock
// memory. The sockets come as arguments, not from c, so that nothing c
// points to leaks into the fabric.
func (d *Device) start(p *des.Proc, c *Copy, requester *topology.Core, srcSock, dstSock *topology.Socket) des.Wait {
	return shm.StartCopy(p, d.machine, requester, srcSock, dstSock, c.n, c.src.ID())
}

// Step ends the copy once the wait its start returned is over: Parked while
// its fabric flow runs, then it moves the bytes, warms the written socket's
// L3, counts the copy and returns Done.
func (c *Copy) Step(p *des.Proc) des.Wait {
	if w := des.AwaitStep(p); w != des.Done {
		return w
	}
	dst := c.dst.Slice(c.dstOff, c.n)
	dst.CopyFrom(c.src.Slice(c.srcOff, c.n))
	c.sock.Touch(dst.ID(), c.n)
	d := c.dev
	if c.put {
		d.stats.Puts++
	} else {
		d.stats.Gets++
	}
	d.stats.BytesCopied += c.n
	*c = Copy{}
	return des.Done
}

// block runs the copy to its end on p, from the wait its start returned.
func (c *Copy) block(p *des.Proc, w des.Wait) {
	for w != des.Done {
		p.Suspend(w)
		w = c.Step(p)
	}
}

// Devices builds one device per node of m.
func Devices(m *topology.Machine) []*Device {
	ds := make([]*Device, m.Spec.Nodes)
	for i := range ds {
		ds[i] = NewDevice(m, i)
	}
	return ds
}
