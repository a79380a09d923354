// Package shm models intra-node shared-memory data movement.
//
// It provides the single primitive every intra-node transport reduces to: a
// core-driven memory copy between two NUMA sockets of the same node, costed
// on the machine's fabric (the copying core's bandwidth ceiling, plus load on
// the source and destination memory buses) and blocking the calling process
// for its duration.
//
// On top of it sit the two intra-node transports the paper contrasts:
//
//   - copy-in/copy-out: the legacy double-copy path through a bounce buffer
//     in a shared segment (two sequential Copy calls by two cores) — the
//     approach that keeps leader processes busy and serializes hierarchical
//     collectives;
//   - KNEM single-copy (package knem): one Copy charged to the requester,
//     freeing the owner entirely.
package shm

import (
	"fmt"

	"hierknem/internal/buffer"
	"hierknem/internal/des"
	"hierknem/internal/topology"
)

// SmallCopyCutoff is the size below which an intra-node copy may bypass the
// fabric: a sub-4 KiB copy lasts ~1 µs and contributes negligible bus load,
// while installing a flow for it costs a full max-min recomputation. It is
// also the bound of mpi's small intra-node stretches (mpi.SmallIntraNode):
// the mpi layer and the collective personalities share this one constant so
// the selector and the transport agree.
const SmallCopyCutoff = 4096

// Copy blocks p while core moves n bytes from srcSock memory to dstSock
// memory. srcBufID identifies the source allocation for L3-residency
// modeling (0 = never resident). The copy pays the machine's ShmLatency and
// then streams at the core's copy ceiling, subject to fair sharing of the
// source and destination memory buses. When source and destination are the
// same socket, the bus appears twice in the path and is charged twice
// (read + write).
//
// While p carries the bypass mark (a small intra-node stretch, see
// mpi.BeginSmallStretch) the copy installs no fabric flow: it charges the
// unloaded source-side rate as a plain sleep. A bypassing copy at or above
// SmallCopyCutoff panics: the stretch was opened on a message the selector
// would have refused.
func Copy(p *des.Proc, m *topology.Machine, core *topology.Core, srcSock, dstSock *topology.Socket, n int64, srcBufID uint64) {
	if n > 0 && !p.Bypass() {
		CopyFlow(p, m, core, srcSock, dstSock, n, srcBufID)
		return
	}
	if n >= SmallCopyCutoff {
		panic(fmt.Sprintf("shm: %d-byte copy inside a small stretch; copies there must stay under the fabric bypass cutoff (%d)", n, SmallCopyCutoff))
	}
	p.Sleep(CopyTime(m, core, srcSock, n, srcBufID))
}

// CopyTime is how long Copy takes when it installs no fabric flow: the
// machine's ShmLatency, then n bytes at the unloaded rate of core reading
// srcSock memory.
func CopyTime(m *topology.Machine, core *topology.Core, srcSock *topology.Socket, n int64, srcBufID uint64) float64 {
	if n <= 0 {
		return m.Spec.ShmLatency
	}
	_, rate := srcSock.ReadSide(&m.Spec, srcBufID, n, core.Socket == srcSock)
	return m.Spec.ShmLatency + float64(n)/rate
}

// CopyFlow is Copy of n > 0 bytes as a fabric flow, whatever p's bypass
// mark: it blocks p until the flow completes.
func CopyFlow(p *des.Proc, m *topology.Machine, core *topology.Core, srcSock, dstSock *topology.Socket, n int64, srcBufID uint64) {
	srcRes, rate := srcSock.ReadSide(&m.Spec, srcBufID, n, core.Socket == srcSock)
	done := des.AwaitBegin(p)
	m.Fab.StartAfterPath2("copy", m.Spec.ShmLatency, float64(n), rate, srcRes, dstSock.MemBus, done)
	des.AwaitEnd(p)
}

// CopyBuffer performs Copy for the byte range described by src and then
// moves the actual payload into dst (when both are real), marking dst
// resident in the destination socket's L3. It is the building block for both
// the bounce-buffer transport and KNEM.
func CopyBuffer(p *des.Proc, m *topology.Machine, core *topology.Core, srcSock, dstSock *topology.Socket, src, dst *buffer.Buffer) {
	Copy(p, m, core, srcSock, dstSock, src.Len(), src.ID())
	dst.CopyFrom(src)
	dstSock.Touch(dst.ID(), dst.Len())
}

// CopyInOut models the legacy two-copy shared-segment transport for one
// fragment: the sender's core copies src into a bounce buffer in its own
// socket, then the receiver's core copies the bounce buffer to dst. Both
// phases block p — use it when a single process (e.g. a Hierarch leader)
// performs the whole movement; transports that split the phases across
// sender and receiver call Copy twice themselves.
func CopyInOut(p *des.Proc, m *topology.Machine, srcCore, dstCore *topology.Core, src, dst *buffer.Buffer) {
	// copy-in: src memory -> bounce (sender's socket), by the sender core
	Copy(p, m, srcCore, srcCore.Socket, srcCore.Socket, src.Len(), src.ID())
	// copy-out: bounce -> dst memory, by the receiver core
	Copy(p, m, dstCore, srcCore.Socket, dstCore.Socket, src.Len(), 0)
	dst.CopyFrom(src)
	dstCore.Socket.Touch(dst.ID(), dst.Len())
}
