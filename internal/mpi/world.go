// Package mpi is a simulated MPI runtime: ranks, communicators, non-blocking
// point-to-point messaging with eager and rendezvous protocols, barriers and
// reduction arithmetic — all executing in virtual time on the des engine of
// a topology.Machine.
//
// Each rank is a des process bound to a core by a topology.Binding. Message
// transport is chosen by peer locality, mirroring the configuration in the
// HierKNEM paper: intra-node messages use the SM/KNEM byte-transfer layer
// (copy-in/copy-out under the eager threshold, single-copy above it) and
// inter-node messages use the network (TCP or IB verbs personality), loading
// NIC and memory-bus fabric resources so collectives experience realistic
// contention.
package mpi

import (
	"errors"
	"fmt"

	"hierknem/internal/buffer"
	"hierknem/internal/des"
	"hierknem/internal/fabric"
	"hierknem/internal/knem"
	"hierknem/internal/topology"
)

// Config tunes the software stack (as opposed to topology.Spec, which is
// hardware). Zero values select defaults.
type Config struct {
	// SendOverhead is the per-message sender CPU cost for inter-node
	// messages (the "o" of LogGP). Default 1 µs.
	SendOverhead float64
	// RendezvousCPU is the per-message protocol-processing cost a
	// rendezvous (large) inter-node message charges to each endpoint's
	// core: RTS/CTS handling, registration, progress-engine work. It is
	// what makes too-small pipeline segments expensive (the left side of
	// the paper's Figure 1 U-curve). Default 0; cluster personalities
	// calibrate it (see internal/clusters).
	RendezvousCPU float64
}

// World is one simulated MPI job.
type World struct {
	Machine *topology.Machine
	Binding *topology.Binding
	Conf    Config
	Knem    []*knem.Device

	// eagerThreshold switches p2p from eager to rendezvous: the spec's
	// EagerThreshold, or 4 KiB when that is zero.
	eagerThreshold int64

	procs     []*Proc
	nextCtx   int
	worldComm *Comm
	netPaths  map[uint64][]*fabric.Resource // shared read-only inter-node paths, keyed by socket pair (see netPath)

	// reducePaths holds ReduceLocal's flow path per socket, node-major: the
	// socket's memory bus three times (two streams read, one written). Pure
	// topology, shared read-only by every reduction flow like netPaths.
	reducePaths [][3]*fabric.Resource

	// empty is this world's zero-byte phantom for control messages. One
	// buffer (one identity) per world suffices: zero-byte transfers never
	// read data, their CopyFrom is a no-op, and a zero-byte Touch neither
	// uses cache capacity nor perturbs the eviction order of real entries.
	// Barriers issue one such buffer per rank per round, so minting fresh
	// identities was a measurable allocation source. Per-world rather than
	// package-level so concurrently running worlds share no pointers.
	empty *buffer.Buffer

	// steps holds each rank's stepped-wait record, by world rank; nil
	// until the first stepped wait (see Proc.waitStep).
	steps []waitStep

	// attr is the world's attribute slot (see Attr).
	attr any

	// BytesCross counts payload bytes sent over inter-node links, a
	// cheap cross-check for algorithm traffic volume.
	BytesCross int64
}

// Proc is one simulated MPI process. Collective and application code runs in
// its body function and calls methods on Proc.
type Proc struct {
	world *World
	rank  int
	name  string // des process name, built once (Run may be called repeatedly)
	core  *topology.Core
	dp    *des.Proc

	posted     postIndex // posted receives, indexed, posting order preserved
	unexpected envIndex  // unexpected envelopes, indexed, arrival order preserved

	envFree *envelope // recycled send records, linked through next (see envelope.refs)
	poFree  *posting  // recycled receive records, linked through hnext (see posting.refs)

	// open counts the requests this rank issued (Isend, Irecv) and has not
	// yet collected (Wait); Run reports a body that returns with open > 0.
	open int
}

// NewWorld creates a world over machine m with np = binding.NP() ranks.
func NewWorld(m *topology.Machine, b *topology.Binding, conf Config) (*World, error) {
	if err := b.Validate(m); err != nil {
		return nil, err
	}
	if conf.SendOverhead == 0 {
		conf.SendOverhead = 1e-6
	}
	w := &World{
		Machine:        m,
		Binding:        b,
		Conf:           conf,
		Knem:           knem.Devices(m),
		eagerThreshold: m.Spec.EagerThreshold,
		empty:          buffer.NewPhantom(0),
	}
	if w.eagerThreshold == 0 {
		w.eagerThreshold = 4096
	}
	w.procs = make([]*Proc, b.NP())
	for r := range w.procs {
		w.procs[r] = &Proc{world: w, rank: r, name: fmt.Sprintf("rank%d", r), core: b.Core(m, r)}
	}
	w.reducePaths = make([][3]*fabric.Resource, 0, len(m.Nodes)*len(m.Nodes[0].Sockets))
	for _, node := range m.Nodes {
		for _, s := range node.Sockets {
			w.reducePaths = append(w.reducePaths, [3]*fabric.Resource{s.MemBus, s.MemBus, s.MemBus})
		}
	}
	return w, nil
}

// Reset returns the world to its pristine post-NewWorld state so a
// consecutive same-spec run can reuse the whole arena: the machine (engine
// event pool, fabric resources and flow pool, L3 trackers), the KNEM
// devices, the per-rank envelope/posting pools and matching-index bucket arrays,
// and the inter-node path cache (pure topology, unchanged by runs) all stay
// warm. Everything observable restarts from zero — virtual clock, event
// sequence numbers, context ids, matching order counters, traffic integrals
// — so a reset world replays a program bit-identically to a fresh world on
// a fresh machine. Reset panics (via the engine and fabric) if a run is
// still in progress.
func (w *World) Reset() {
	w.Machine.Reset()
	for _, d := range w.Knem {
		d.Reset()
	}
	for _, p := range w.procs {
		p.dp = nil
		p.posted.reset()
		p.unexpected.reset()
		p.open = 0
	}
	w.nextCtx = 0
	w.worldComm = nil
	w.BytesCross = 0
}

// Run executes body as an SPMD program on every rank and drives the engine
// until completion. It may be called repeatedly on the same world (e.g. one
// benchmark phase per call); virtual time keeps advancing. A deadlock
// returns a *StallError; a run that completes with some rank holding a
// request it never waited on returns an *UncollectedError. A rank's panic
// reaches the caller. Either way the ranks still parked are unwound and the
// queued events and flows in service dropped (des.Engine.Run, fabric
// Net.Discard), so the world can be Reset and run again.
func (w *World) Run(body func(p *Proc)) error {
	for _, p := range w.procs {
		p := p
		p.dp = w.Machine.Eng.Spawn(p.name, func(dp *des.Proc) {
			body(p)
		})
	}
	defer w.Machine.Fab.Discard()
	err := w.Machine.Eng.Run()
	var dl *des.DeadlockError
	if err != nil && errors.As(err, &dl) {
		// Stall autopsy: the queue drained with ranks still parked.
		// Attach every pending point-to-point operation so the report
		// names the missing message, not just the stuck ranks.
		report := w.stallReport()
		if report == "" {
			report = "  no pending point-to-point operations (ranks parked outside p2p)"
		}
		return &StallError{Deadlock: dl, Report: report}
	}
	if err == nil {
		err = w.uncollected()
	}
	return err
}

// Attr returns the value last stored with SetAttr, or nil. Like
// Comm.Attr, the slot lets a layer above (one at a time) keep state beside
// the world's own per-rank records — made once per world, kept across
// Reset, and collected with the world.
func (w *World) Attr() any { return w.attr }

// SetAttr stores v in the world's attribute slot.
func (w *World) SetAttr(v any) { w.attr = v }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.procs) }

// Proc returns the process for a world rank.
func (w *World) Proc(rank int) *Proc { return w.procs[rank] }

// Now returns the current virtual time.
func (w *World) Now() float64 { return w.Machine.Eng.Now() }

// Rank returns the world rank.
func (p *Proc) Rank() int { return p.rank }

// Core returns the core this rank is bound to.
func (p *Proc) Core() *topology.Core { return p.core }

// World returns the owning world.
func (p *Proc) World() *World { return p.world }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.dp.Now() }

// Compute blocks the rank for d seconds of CPU work.
func (p *Proc) Compute(d float64) { p.dp.Sleep(d) }

// Knem returns the KNEM device of this rank's node.
func (p *Proc) Knem() *knem.Device { return p.world.Knem[p.core.NodeID] }

// DES exposes the underlying des process for advanced composition.
func (p *Proc) DES() *des.Proc { return p.dp }

// ReduceLocal applies dst = op(dst, src), charging reduction arithmetic to
// this rank's core: the flow reads two streams and writes one through the
// local memory bus at the core copy bandwidth. Inside a small
// stretch (BeginSmallStretch) it charges the unloaded reduction rate as a
// plain sleep instead; a reduction at or above the fabric bypass cutoff
// there panics, mirroring shm.Copy — the stretch was opened on a message
// SmallIntraNode would have refused. It is StartReduce, the charge, and
// FinishReduce, driven on the rank.
func (p *Proc) ReduceLocal(op buffer.Op, dtype buffer.Datatype, dst, src *buffer.Buffer) {
	p.dp.Suspend(p.StartReduce(dst))
	for p.FinishReduce(op, dtype, dst, src) != des.Done {
		p.dp.Park()
	}
}

// StartReduce starts the charge of a reduction into dst and returns it as
// a wait: a sleep inside a small stretch, Parked on the reduction's fabric
// flow outside one, and Done for an empty dst.
func (p *Proc) StartReduce(dst *buffer.Buffer) des.Wait {
	n := dst.Len()
	switch {
	case n == 0:
		return des.Done
	case p.dp.Bypass():
		if n >= smallCopyCutoff {
			panic(fmt.Sprintf("mpi: rank %d reduced %d bytes inside a small stretch; reductions there must stay under the fabric bypass cutoff (%d)",
				p.rank, n, smallCopyCutoff))
		}
		return des.SleepFor(float64(n) / p.world.Machine.Spec.CoreCopyBandwidth)
	}
	w, s := p.world, p.core.Socket
	path := w.reducePaths[s.NodeID*len(w.Machine.Nodes[0].Sockets)+s.ID][:]
	w.Machine.Fab.StartAfter("compute", 0, float64(n), w.Machine.Spec.CoreCopyBandwidth, path, des.AwaitBegin(p.dp))
	return des.Parked
}

// FinishReduce ends the reduction once the wait StartReduce returned is
// over: Parked while its flow runs, then it applies dst = op(dst, src) and
// returns Done.
func (p *Proc) FinishReduce(op buffer.Op, dtype buffer.Datatype, dst, src *buffer.Buffer) des.Wait {
	if w := des.AwaitStep(p.dp); w != des.Done {
		return w
	}
	buffer.Reduce(op, dtype, dst, src)
	return des.Done
}
