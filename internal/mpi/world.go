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
	"os"
	"strconv"
	"sync/atomic"

	"hierknem/internal/buffer"
	"hierknem/internal/des"
	"hierknem/internal/fabric"
	"hierknem/internal/knem"
	"hierknem/internal/san"
	"hierknem/internal/topology"
)

// Config tunes the software stack (as opposed to topology.Spec, which is
// hardware). Zero values select defaults.
type Config struct {
	// EagerThreshold switches p2p from eager to rendezvous. Default: the
	// machine spec's threshold, or 4 KiB.
	EagerThreshold int64
	// SendOverhead is the per-message sender CPU cost for inter-node
	// messages (the "o" of LogGP). Default 1 µs.
	SendOverhead float64
	// ReduceBandwidth is the per-core streaming rate of reduction
	// arithmetic. Default: the core copy bandwidth.
	ReduceBandwidth float64
	// RendezvousHandshake is the extra latency before a matched
	// rendezvous transfer starts. Default: one network latency.
	RendezvousHandshake float64
	// RendezvousCPU is the per-message protocol-processing cost a
	// rendezvous (large) inter-node message charges to each endpoint's
	// core: RTS/CTS handling, registration, progress-engine work. It is
	// what makes too-small pipeline segments expensive (the left side of
	// the paper's Figure 1 U-curve). Default 0; cluster personalities
	// calibrate it (see internal/clusters).
	RendezvousCPU float64
}

func (c Config) withDefaults(spec *topology.Spec) Config {
	if c.EagerThreshold == 0 {
		c.EagerThreshold = spec.EagerThreshold
		if c.EagerThreshold == 0 {
			c.EagerThreshold = 4096
		}
	}
	if c.SendOverhead == 0 {
		c.SendOverhead = 1e-6
	}
	if c.ReduceBandwidth == 0 {
		c.ReduceBandwidth = spec.CoreCopyBandwidth
	}
	if c.RendezvousHandshake == 0 {
		c.RendezvousHandshake = spec.NetLatency
	}
	return c
}

// World is one simulated MPI job.
type World struct {
	Machine *topology.Machine
	Binding *topology.Binding
	Conf    Config
	Knem    []*knem.Device

	procs     []*Proc
	nextCtx   int
	worldComm *Comm
	nodeComms []*Comm                       // per-node communicators, built eagerly (see NodeComm)
	netPaths  map[uint64][]*fabric.Resource // shared read-only inter-node paths, keyed by socket pair (see netPath)

	// empty is this world's zero-byte phantom for control messages. One
	// buffer (one identity) per world suffices: zero-byte transfers never
	// read data, their CopyFrom is a no-op, and a zero-byte Touch neither
	// uses cache capacity nor perturbs the eviction order of real entries.
	// Barriers issue one such buffer per rank per round, so minting fresh
	// identities was a measurable allocation source. Per-world rather than
	// package-level so concurrently running worlds share no pointers.
	empty *buffer.Buffer

	// BytesCross counts payload bytes sent over inter-node links, a
	// cheap cross-check for algorithm traffic volume.
	BytesCross int64

	// san is the attached hiersan runtime (nil when disabled — the
	// default). See EnableSanitizer.
	san *san.Sanitizer

	// Guard elision (see guards.go): the mode, the set of manifest-proved
	// region functions keyed by runtime name, and a count of node-phase
	// entries that actually ran guard-free (atomic: bracketed ranks enter
	// phases from parallel workers; the counter is observability only and
	// never feeds simulation state).
	guardMode    GuardMode
	guardRegions map[string]bool
	elidedPhases atomic.Int64
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

	// envPool and poPool are the recycled send/receive records (see
	// envelope.refs, posting.refs). Per-rank heads are the pool sharding the
	// parallel windows rely on: strictly finer than per-domain, each head in
	// its own heap-allocated Proc (no two heads share a cache line), and the
	// confinement discipline guarantees every alloc/release runs either on
	// the owning node's worker or under the serial coordinator.
	envPool []*envelope // recycled send records (see envelope.refs)
	poPool  []*posting  // recycled receive records (see posting.refs)

	// elide is set between node-phase brackets whose enclosing function the
	// phasesafe manifest proves confined: the per-message guards early-out
	// on it. Written only by the rank's own event context (worker or
	// coordinator), like the pools above.
	elide bool
}

// NewWorld creates a world over machine m with np = binding.NP() ranks.
func NewWorld(m *topology.Machine, b *topology.Binding, conf Config) (*World, error) {
	if err := b.Validate(m); err != nil {
		return nil, err
	}
	w := &World{
		Machine: m,
		Binding: b,
		Conf:    conf.withDefaults(&m.Spec),
		Knem:    knem.Devices(m),
		empty:   buffer.NewPhantom(0),
	}
	w.procs = make([]*Proc, b.NP())
	for r := range w.procs {
		w.procs[r] = &Proc{world: w, rank: r, name: fmt.Sprintf("rank%d", r), core: b.Core(m, r)}
	}
	w.buildNodeComms()
	if san.EnvEnabled() {
		w.EnableSanitizer()
	}
	if engineModeEnv() == des.ModeParallel {
		w.SetEngineMode(des.ModeParallel)
	}
	n, err := workersEnv()
	if err != nil {
		return nil, err
	}
	if n > 0 {
		w.SetEngineWorkers(n)
	}
	gm, err := guardsEnv()
	if err != nil {
		return nil, err
	}
	if gm == GuardElided {
		// Runs after EnableSanitizer above, so HIERSAN=1 silently keeps
		// the world checked even under HIERKNEM_GUARDS=elide.
		if err := w.SetGuardMode(GuardElided); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// buildNodeComms creates one communicator per node holding that node's ranks
// (in world-rank order), eagerly: confined node phases read them without
// touching the world-global context counter, so no Split-style collective is
// needed inside a parallel window. Nodes hosting no rank get a nil entry.
// Runs at NewWorld and again after Reset, in the same order both times, so
// context ids replay identically.
func (w *World) buildNodeComms() {
	nodes := len(w.Machine.Nodes)
	if cap(w.nodeComms) < nodes {
		w.nodeComms = make([]*Comm, nodes)
	}
	w.nodeComms = w.nodeComms[:nodes]
	perNode := make([][]int, nodes)
	for r, p := range w.procs {
		perNode[p.core.NodeID] = append(perNode[p.core.NodeID], r)
	}
	for n, ranks := range perNode {
		if len(ranks) == 0 {
			w.nodeComms[n] = nil
			continue
		}
		w.nodeComms[n] = w.newComm(ranks)
	}
}

// NodeComm returns the prebuilt communicator of every rank on p's node. It
// is the communicator node phases run their intra-node collectives on.
func (p *Proc) NodeComm() *Comm { return p.world.nodeComms[p.core.NodeID] }

// engineModeEnv reads the HIERKNEM_ENGINE environment toggle ("parallel"
// selects conservative parallel mode for every new world). Like HIERSAN, an
// environment read is deterministic for the life of the process.
func engineModeEnv() des.EngineMode {
	if os.Getenv("HIERKNEM_ENGINE") == "parallel" {
		return des.ModeParallel
	}
	return des.ModeSerial
}

// workersEnv reads the HIERKNEM_WORKERS override for the phase worker count.
// Unset (or empty) keeps the engine's GOMAXPROCS-derived default; anything
// else must be a positive integer. Rejecting zero, negative and non-numeric
// values loudly — instead of silently falling back to the default — is
// deliberate: a typo'd worker count that quietly ran the default pool once
// cost a day of confused benchmarking.
func workersEnv() (int, error) {
	s := os.Getenv("HIERKNEM_WORKERS")
	if s == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("mpi: HIERKNEM_WORKERS=%q is not an integer", s)
	}
	if n < 1 {
		return 0, fmt.Errorf("mpi: HIERKNEM_WORKERS=%d must be at least 1 (unset it for the engine default)", n)
	}
	return n, nil
}

// SetEngineWorkers fixes the number of workers parallel windows execute on.
// n=1 selects the degenerate one-worker engine — no staging, no windows, no
// outboxes — whose overhead over serial is bounded by a bench gate. Worker
// count never shows in the event log; it only decides how a window's domains
// are spread over host cores.
func (w *World) SetEngineWorkers(n int) { w.Machine.Eng.SetWorkers(n) }

// SetEngineMode switches the world's engine between the serial reference
// and conservative parallel mode (installing the machine's node partition).
// Must not be called mid-Run; the mode survives Reset, so a reset world
// replays in the mode it was left in.
func (w *World) SetEngineMode(m des.EngineMode) {
	eng := w.Machine.Eng
	if m == des.ModeParallel {
		eng.SetPartition(w.Machine.Partition())
	}
	eng.SetMode(m)
}

// EngineMode returns the engine mode the world runs under.
func (w *World) EngineMode() des.EngineMode { return w.Machine.Eng.Mode() }

// EnableSanitizer attaches a hiersan runtime to the world and every layer
// under it (engine, fabric, KNEM devices), returning it so tests can install
// a violation collector. Idempotent. NewWorld calls it automatically when
// HIERSAN=1 is set in the environment. The sanitizer schedules no events
// and never advances the clock, so an instrumented run is event-for-event
// identical to a bare one; it only turns virtual-time hazards — double
// release, use after release, unsynchronized overlapping buffer accesses —
// into immediate, diagnosable violations.
func (w *World) EnableSanitizer() *san.Sanitizer {
	if w.san != nil {
		return w.san
	}
	s := san.New(w.Machine.Eng.Now)
	w.san = s
	// The sanitizer exists to run every assertion: revoke guard elision.
	w.guardMode = GuardChecked
	w.guardRegions = nil
	w.Machine.Eng.SetSanitizer(s)
	w.Machine.Fab.SetSanitizer(s)
	for _, d := range w.Knem {
		d.SetSanitizer(s)
	}
	return s
}

// Sanitizer returns the attached hiersan runtime, or nil when disabled.
func (w *World) Sanitizer() *san.Sanitizer { return w.san }

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
		p.elide = false // a run that panicked mid-phase must not leak elision
	}
	w.nextCtx = 0
	w.worldComm = nil
	w.buildNodeComms()
	w.BytesCross = 0
	if w.san != nil {
		// After Machine.Reset: the engine's drain has already routed
		// leftover events through release, under the sanitizer's eyes.
		w.san.Reset()
	}
}

// Run executes body as an SPMD program on every rank and drives the engine
// until completion. It may be called repeatedly on the same world (e.g. one
// benchmark phase per call); virtual time keeps advancing.
func (w *World) Run(body func(p *Proc)) error {
	for _, p := range w.procs {
		p := p
		p.dp = w.Machine.Eng.Spawn(p.name, func(dp *des.Proc) {
			body(p)
		})
		// The rank's home domain is its node: its resume events stage
		// under that node's queue in parallel mode.
		p.dp.SetDomain(int32(p.core.NodeID) + 1)
	}
	err := w.Machine.Eng.Run()
	if w.san != nil && err != nil {
		var dl *des.DeadlockError
		if errors.As(err, &dl) {
			// Stall autopsy: the queue drained with ranks still parked.
			// Attach every pending point-to-point operation so the report
			// names the missing message, not just the stuck ranks.
			return &StallError{Deadlock: dl, Report: w.stallReport()}
		}
	}
	return err
}

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
// local memory bus at the configured reduction bandwidth. Inside a node
// phase the arithmetic may not install a fabric flow, so it charges the
// unloaded reduction rate directly — same virtual cost in both engine
// modes; a confined reduction at or above the fabric bypass cutoff panics,
// mirroring the shm.Copy bracket rule.
func (p *Proc) ReduceLocal(op buffer.Op, dtype buffer.Datatype, dst, src *buffer.Buffer) {
	n := dst.Len()
	if n > 0 {
		if p.dp.Confined() {
			if n >= smallCopyCutoff {
				panic(fmt.Sprintf("mpi: rank %d reduced %d bytes inside a node phase; confined reductions must stay under the fabric bypass cutoff (%d)",
					p.rank, n, smallCopyCutoff))
			}
			p.dp.Sleep(float64(n) / p.world.Conf.ReduceBandwidth)
		} else {
			bus := p.core.Socket.MemBus
			path := []*fabric.Resource{bus, bus, bus}
			des.Await(p.dp, func(done func()) {
				p.world.Machine.Fab.StartAfterClassed("compute", 0, float64(n), p.world.Conf.ReduceBandwidth, path, done)
			})
		}
	}
	buffer.Reduce(op, dtype, dst, src)
}
