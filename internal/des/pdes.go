// Conservative parallel mode (PDES) for the engine.
//
// The serial engine dispatches the globally least (time, seq) event from one
// queue. Parallel mode keeps that dispatch order bit-for-bit — it is the
// correctness contract every equivalence suite rests on — but reorganizes
// the *queues* around the fabric's domain partition so that independent
// per-domain work can proceed on multiple host cores:
//
//   - Every event carries a domain tag (a fabric component / topology node,
//     0 = the global domain for setup, control-plane and cross-domain
//     traffic). Events scheduled beyond the current window horizon are
//     staged in per-domain heaps instead of the run queue.
//
//   - The run queue only ever holds the current bounded virtual-time window
//     [floor, floor+L), where the lookahead L is the minimum inter-domain
//     link latency exported by the Partition. When the window drains, the
//     engine advances: the new floor is the least staged time, and every
//     staged event below the new horizon is promoted into the run queue.
//     Promotion drains each domain's heap independently (in parallel when
//     the window is large), then merges deterministically — the run queue
//     orders by (time, seq) regardless of insertion order.
//
//   - Within a window the dispatch loop is exactly the serial engine. An
//     event staged for a later window can never precede one in the current
//     window: staging requires t >= horizon, promotion happens only at a
//     drained queue, and the horizon never decreases (each new horizon is
//     min-staged + L with L > 0, and min-staged is at or above the old
//     horizon). Determinism therefore holds *by construction*; domain tags
//     only steer which staging heap an event waits in, never when it runs.
//
// The window protocol is the classic conservative (Chandy–Misra–Bryant)
// synchronization with link-latency lookahead, collapsed onto a shared-
// memory engine: the window barrier is the queue drain, and the "null
// messages" are unnecessary because every domain's staging heap is visible
// to the single dispatcher. Lookahead is re-read whenever the partition
// epoch moves (fabric component merges/splits invalidate it), and a
// non-positive lookahead surfaces as a CausalityError instead of a silently
// wrong window: with more than one domain, zero lookahead would force
// zero-width windows and the conservative protocol cannot advance.
package des

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// EngineMode selects how the engine organizes its event queues.
type EngineMode int

const (
	// ModeSerial is the reference engine: one queue, one window, no
	// staging. The default.
	ModeSerial EngineMode = iota
	// ModeParallel stages far-future events in per-domain heaps and
	// advances through bounded virtual-time windows. Dispatch order is
	// bit-identical to ModeSerial.
	ModeParallel
)

func (m EngineMode) String() string {
	if m == ModeParallel {
		return "parallel"
	}
	return "serial"
}

// Partition describes the domain decomposition parallel mode stages events
// by. Implemented by topology.Machine (one domain per node; domain 0 is the
// implicit global domain for cross-domain and control traffic).
type Partition interface {
	// Domains returns the number of non-global domains. A partition with
	// fewer than two domains degenerates parallel mode to the serial
	// engine (everything routes to the run queue, no windows).
	Domains() int
	// Lookahead returns the minimum virtual-time latency of any
	// inter-domain link: the window width. Must be positive whenever
	// Domains() > 1; Run refuses to start (and advancement refuses to
	// continue) with a CausalityError otherwise.
	Lookahead() float64
	// Epoch is bumped by the partition whenever its component structure
	// merges or splits; the engine re-reads Lookahead when it changes.
	Epoch() uint64
}

// Causality-violation operations, recorded in CausalityError.Op.
const (
	// OpSchedule: an event was scheduled behind the engine clock (and
	// therefore behind the current window floor).
	OpSchedule = "schedule"
	// OpLookahead: the partition reported a non-positive lookahead while
	// more than one domain is active.
	OpLookahead = "lookahead"
	// OpConfine: an operation inside a parallel window phase coupled two
	// domains — scheduling below the horizon for a foreign domain, waking a
	// process homed outside the phase's active domains, or entering the
	// engine through a non-confined API (At/After/AtDomain) from worker
	// context.
	OpConfine = "confine"
)

// CausalityError reports a conservative-PDES precondition violation: an
// event scheduled behind its window floor, or a window width (lookahead)
// that cannot advance virtual time. It names the offending domain and
// virtual time so the report points at the component, not just the symptom.
type CausalityError struct {
	Op        string  // OpSchedule or OpLookahead
	Domain    int32   // offending domain (component) tag; -1 when global
	At        float64 // offending virtual time (the scheduled t, or now)
	Floor     float64 // window floor in force at the violation
	Lookahead float64 // lookahead in force (OpLookahead: the bad value)
}

func (c *CausalityError) Error() string {
	if c.Op == OpLookahead {
		return fmt.Sprintf(
			"des: causality: non-positive lookahead %g at t=%g; conservative windows cannot advance across >1 domains",
			c.Lookahead, c.At)
	}
	if c.Op == OpConfine {
		return fmt.Sprintf(
			"des: causality: operation touching domain %d at t=%g from inside a parallel window [%g, %g) couples another domain; confined code may only act on its own domain below the horizon",
			c.Domain, c.At, c.Floor, c.Floor+c.Lookahead)
	}
	return fmt.Sprintf(
		"des: causality: domain %d event at t=%g scheduled behind window floor %g",
		c.Domain, c.At, c.Floor)
}

// parstate is the parallel-mode queue organization: per-domain staging
// heaps plus the current window bounds. Created by SetMode(ModeParallel),
// nil in serial mode (the serial hot path pays one nil check).
type parstate struct {
	look  float64 // window width: min inter-domain latency
	epoch uint64  // partition epoch look was derived at

	floor   float64 // current window floor
	horizon float64 // current window horizon (exclusive); never decreases

	heaps  []eventHeap // staging heap per domain; index 0 = global domain
	scr    [][]*event  // per-domain promotion scratch (parallel drain)
	staged int         // events currently staged across all heaps
	domMin float64     // conservative lower bound of staged times (see Sleep)

	// degenerate marks a configuration that cannot window usefully — a
	// partition with fewer than two domains, or an explicit one-worker
	// engine: the horizon pins to +Inf and everything routes to the run
	// queue (the small-host fast path, no staging or outbox machinery).
	degenerate bool

	windows   uint64 // window advances performed
	collected uint64 // events promoted out of staging heaps

	// In-window parallel execution (parexec.go).
	workers       int      // resolved phase worker count
	inPhase       bool     // a phase is executing (set before fan-out, cleared after join)
	ws            []wstate // per-domain worker dispatch state; index 0 unused
	activeScratch []int32  // census scratch: the pending phase's active domains
	headScratch   []phaseHead

	// Mixed-window census state. censusOK marks the current window as
	// phase-capable (enough workers, no MaxTime trip inside it); censusArmed
	// asks the dispatch loop to re-census when the next event is confined —
	// armed after each serially dispatched residue event, so one window can
	// run several phase rounds. censusFails is the per-window failure budget
	// (maxCensusFails). boundAt/boundSeq is the pending phase's residue
	// bound; winPhased flags that the current window ran at least one round.
	censusOK    bool
	censusArmed bool
	censusFails int
	boundAt     float64
	boundSeq    uint64
	winPhased   bool

	// defMu guards defCancels: Timer.Cancel of a coordinator-staged event
	// issued from a phase worker defers to the barrier (the staging heaps
	// are frozen while workers run).
	defMu      sync.Mutex
	defCancels []defCancel

	panics []any // per-worker panic capture, re-raised after the join

	phases        uint64 // parallel phase rounds executed (a mixed window can run several)
	phaseEvents   uint64 // events dispatched inside phases
	phasedWindows uint64 // windows that executed at least one phase round
}

// Window-advance outcomes (Engine.advanceWindow).
const (
	windowNone     = iota // nothing staged, or a lookahead error (runErr set)
	windowAdvanced        // promoted serially; keep dispatching
	windowPhase           // census passed; scr + activeScratch carry the phase sets, the residue is queued
)

// Parallel promotion thresholds: below these, goroutine fan-out costs more
// than the serial drain of a few heap entries.
const (
	parCollectMinHeaps  = 2
	parCollectMinStaged = 128
	parCollectMaxProcs  = 8
)

// SetMode switches the engine between the serial reference and the
// conservative parallel organization. Must not be called mid-Run. Switching
// to ModeParallel derives the window state from the partition installed via
// SetPartition; switching back promotes every staged event into the run
// queue, so no event is ever lost across a mode flip. Reset preserves the
// mode: a reset world replays in whatever mode it was left in.
func (e *Engine) SetMode(m EngineMode) {
	if e.running {
		panic("des: SetMode during Run")
	}
	if m == e.mode {
		return
	}
	e.mode = m
	if m == ModeParallel {
		e.initParallel()
		return
	}
	e.flushStaged()
	e.par = nil
}

// Mode returns the engine's current execution mode.
func (e *Engine) Mode() EngineMode { return e.mode }

// SetPartition installs (or, with nil, removes) the domain partition
// parallel mode stages events by. In serial mode the partition is inert.
// Must not be called mid-Run.
func (e *Engine) SetPartition(p Partition) {
	if e.running {
		panic("des: SetPartition during Run")
	}
	e.partition = p
	if e.par != nil {
		e.initParallel()
	}
}

// PartitionInstalled returns the installed partition, or nil.
func (e *Engine) PartitionInstalled() Partition { return e.partition }

// initParallel (re)derives the parallel queue state from the installed
// partition. Any already-staged events are promoted to the run queue first,
// so re-partitioning cannot strand an event in a vanishing heap.
func (e *Engine) initParallel() {
	e.flushStaged()
	p := e.par
	if p == nil {
		p = &parstate{}
		e.par = p
	}
	doms := 0
	if e.partition != nil {
		doms = e.partition.Domains()
	}
	p.workers = resolveWorkers(e.workersReq)
	p.degenerate = doms <= 1 || p.workers < 2
	n := doms + 1 // heap 0 is the global domain
	if cap(p.heaps) >= n {
		p.heaps = p.heaps[:n]
	} else {
		p.heaps = make([]eventHeap, n)
	}
	if cap(p.scr) >= n {
		p.scr = p.scr[:n]
	} else {
		scr := make([][]*event, n)
		copy(scr, p.scr)
		p.scr = scr
	}
	p.staged = 0
	p.domMin = math.Inf(1)
	p.floor = e.now
	p.windows = 0
	p.collected = 0
	p.phases = 0
	p.phaseEvents = 0
	p.phasedWindows = 0
	p.inPhase = false
	p.censusOK = false
	p.censusArmed = false
	p.censusFails = 0
	p.boundAt = math.Inf(1)
	p.boundSeq = ^uint64(0)
	p.winPhased = false
	p.activeScratch = p.activeScratch[:0]
	p.defCancels = p.defCancels[:0]
	p.epoch = 0
	p.look = math.Inf(1)
	if p.degenerate {
		p.horizon = math.Inf(1)
		return
	}
	p.look = e.partition.Lookahead()
	p.epoch = e.partition.Epoch()
	if !(p.look > 0) { // catches <= 0 and NaN
		// Leave the horizon pinned at now so nothing is mis-staged;
		// Run surfaces the CausalityError before dispatching.
		p.horizon = e.now
		return
	}
	p.horizon = e.now + p.look
}

// flushStaged promotes every staged event into the run queue.
func (e *Engine) flushStaged() {
	p := e.par
	if p == nil || p.staged == 0 {
		return
	}
	for di := range p.heaps {
		h := &p.heaps[di]
		for len(*h) > 0 {
			ev := h.popMin()
			ev.inDom = -1
			e.queue.push(ev)
		}
	}
	p.staged = 0
	p.domMin = math.Inf(1)
}

// checkLookahead validates the partition's lookahead at Run entry,
// refreshing the cached window width. Returns the CausalityError to refuse
// the run with, or nil.
func (e *Engine) checkLookahead() *CausalityError {
	p := e.par
	if p == nil || p.degenerate || e.partition == nil {
		return nil
	}
	l := e.partition.Lookahead()
	if !(l > 0) {
		return &CausalityError{Op: OpLookahead, Domain: -1, At: e.now, Floor: p.floor, Lookahead: l}
	}
	if l != p.look {
		p.look = l
		if h := e.now + l; h > p.horizon {
			p.horizon = h
			e.promoteBelow(p.horizon)
		}
	}
	p.epoch = e.partition.Epoch()
	return nil
}

// stage parks an event in its domain's staging heap until the window
// machinery promotes it. dom is clamped into the heap range (unknown or
// out-of-range domains stage globally).
func (e *Engine) stage(ev *event, dom int32) {
	p := e.par
	di := int(dom)
	if di < 0 || di >= len(p.heaps) {
		di = 0
	}
	ev.inDom = int32(di)
	p.heaps[di].push(ev)
	p.staged++
	if ev.at < p.domMin {
		p.domMin = ev.at
	}
}

// advanceWindow opens the next virtual-time window once the current one has
// drained: the new floor is the least staged time across all domains, the
// new horizon floor+lookahead, and every staged event below the horizon is
// collected. Returns windowAdvanced when the window's events were promoted
// into the run queue (serial dispatch), windowPhase when the confinement
// census passed — the window sits in the promotion scratch and the caller
// must execute it through runPhase on the driver — and windowNone at
// true end-of-run or when a stale partition invalidates the lookahead (the
// latter also sets runErr).
//
// Monotonicity argument: every staged event satisfied t >= horizon when it
// was staged, so floor >= the old horizon, and with lookahead > 0 the new
// horizon strictly exceeds the old. Promoted events therefore always land
// in the strict future of the clock — the serial dispatch invariant "time
// never goes backwards" carries over unchanged.
func (e *Engine) advanceWindow() int {
	p := e.par
	if p.staged == 0 {
		return windowNone
	}
	// Fabric component merges/splits bump the partition epoch; re-derive
	// the lookahead before trusting a window width computed from a stale
	// component structure.
	if !p.degenerate && e.partition != nil {
		if ep := e.partition.Epoch(); ep != p.epoch {
			p.epoch = ep
			l := e.partition.Lookahead()
			if !(l > 0) {
				e.runErr = &CausalityError{Op: OpLookahead, Domain: -1, At: e.now, Floor: p.floor, Lookahead: l}
				return windowNone
			}
			p.look = l
		}
	}
	floor := math.Inf(1)
	for di := range p.heaps {
		if h := p.heaps[di]; len(h) > 0 && h[0].at < floor {
			floor = h[0].at
		}
	}
	p.floor = floor
	if h := floor + p.look; h > p.horizon {
		p.horizon = h
	}
	p.windows++
	p.winPhased = false
	p.censusFails = 0
	p.censusArmed = false
	// A window whose horizon could trip MaxTime must dispatch serially so
	// Run can abort mid-window and surface the error.
	p.censusOK = p.workers >= 2 && !(e.MaxTime > 0 && p.horizon > e.MaxTime)
	if p.censusOK {
		e.collectBelow(p.horizon)
		// Everything collected leaves staging on every path — into phase
		// sets, or into the run queue as residue or restored scratch — so
		// the accounting happens here, once.
		total := 0
		for di := range p.scr {
			total += len(p.scr[di])
		}
		p.staged -= total
		p.collected += uint64(total)
		if e.censusScratch() {
			p.refreshDomMin()
			return windowPhase
		}
		e.restoreScratch()
		p.refreshDomMin()
		return windowAdvanced
	}
	e.promoteBelow(p.horizon)
	return windowAdvanced
}

// promoteBelow moves every staged event with time below h into the run
// queue and refreshes the staged-minimum cache. The merge order is
// irrelevant: the run queue orders by (time, seq) however events arrive.
func (e *Engine) promoteBelow(h float64) {
	p := e.par
	if p.staged == 0 {
		return
	}
	e.collectBelow(h)
	e.promoteScratch()
	p.refreshDomMin()
}

// collectBelow drains each domain heap's below-h prefix into that domain's
// promotion scratch slice — concurrently for large windows. Workers touch
// disjoint heaps and disjoint event records, and the caller only proceeds
// after the barrier, so the collection is race-free and order-independent.
// staged/collected accounting is the consumer's job (promoteScratch, or
// advanceWindow's census path).
func (e *Engine) collectBelow(h float64) {
	p := e.par
	busy := 0
	for di := range p.heaps {
		if hp := p.heaps[di]; len(hp) > 0 && hp[0].at < h {
			busy++
		}
	}
	if busy >= parCollectMinHeaps && p.staged >= parCollectMinStaged {
		workers := p.workers
		if workers < 2 {
			workers = 2
		}
		if workers > len(p.heaps) {
			workers = len(p.heaps)
		}
		var (
			cursor atomic.Int64
			wg     sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			//hierflow:serial window-promotion workers own disjoint domain heaps (claimed via the atomic cursor) and the spawner only resumes after wg.Wait, so no record is shared between contexts
			go func() {
				defer wg.Done()
				for {
					di := int(cursor.Add(1)) - 1
					if di >= len(p.heaps) {
						return
					}
					hp := &p.heaps[di]
					scr := p.scr[di][:0]
					for len(*hp) > 0 && (*hp)[0].at < h {
						ev := hp.popMin()
						ev.inDom = -1
						scr = append(scr, ev)
					}
					p.scr[di] = scr
				}
			}()
		}
		wg.Wait()
		return
	}
	for di := range p.heaps {
		hp := &p.heaps[di]
		scr := p.scr[di][:0]
		for len(*hp) > 0 && (*hp)[0].at < h {
			ev := hp.popMin()
			ev.inDom = -1
			scr = append(scr, ev)
		}
		p.scr[di] = scr
	}
}

// promoteScratch merges the collected promotion scratch into the run queue.
func (e *Engine) promoteScratch() {
	p := e.par
	for di := range p.scr {
		scr := p.scr[di]
		for i, ev := range scr {
			e.queue.push(ev)
			scr[i] = nil
		}
		p.staged -= len(scr)
		p.collected += uint64(len(scr))
		p.scr[di] = scr[:0]
	}
}

// restoreScratch returns collected events to the run queue without touching
// the staged/collected accounting: the failure paths of the census, whose
// callers either already accounted for the collection (advanceWindow) or
// collected from the run queue where no accounting applies (censusFromQueue).
func (e *Engine) restoreScratch() {
	p := e.par
	for di := range p.scr {
		scr := p.scr[di]
		for i, ev := range scr {
			e.queue.push(ev)
			scr[i] = nil
		}
		p.scr[di] = scr[:0]
	}
}

// refreshDomMin recomputes the conservative staged-minimum cache.
func (p *parstate) refreshDomMin() {
	p.domMin = math.Inf(1)
	for di := range p.heaps {
		if hp := p.heaps[di]; len(hp) > 0 && hp[0].at < p.domMin {
			p.domMin = hp[0].at
		}
	}
}

// AtDomain schedules fn at absolute time t on behalf of the given domain.
// It is At with an explicit domain tag, for callers (the fabric's
// completion timers) that know which component an event belongs to better
// than the ambient dispatch context does. The tag steers staging and
// causality reporting only; dispatch order is (time, seq) regardless.
//
// AtDomain (like At and After) is a coordinator-context API: calling it
// from inside a parallel window phase panics with an OpConfine
// CausalityError — confined code schedules through its process handle
// (Proc.After, Sleep, Wake), which routes to the owning domain's worker.
func (e *Engine) AtDomain(dom int32, t float64, fn func()) Timer {
	return e.atDomain(dom, t, fn, false)
}

// AtShared is At for events that read or write cross-domain state — the
// fabric's sync, fill and completion machinery. A shared event disqualifies
// its window from parallel execution: it always dispatches under the serial
// coordinator, whatever domain it is tagged with.
func (e *Engine) AtShared(t float64, fn func()) Timer {
	return e.atDomain(e.curDom, t, fn, true)
}

// AfterShared is After with the shared marking of AtShared.
func (e *Engine) AfterShared(d float64, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %g", d))
	}
	return e.atDomain(e.curDom, e.now+d, fn, true)
}

// AtDomainShared is AtDomain with the shared marking of AtShared.
func (e *Engine) AtDomainShared(dom int32, t float64, fn func()) Timer {
	return e.atDomain(dom, t, fn, true)
}

func (e *Engine) atDomain(dom int32, t float64, fn func(), shared bool) Timer {
	if p := e.par; p != nil && p.inPhase {
		panic(p.confineViolation(dom, t))
	}
	if t < e.now {
		if p := e.par; p != nil {
			panic(&CausalityError{Op: OpSchedule, Domain: dom, At: t, Floor: p.floor})
		}
		panic(fmt.Sprintf("des: scheduling event at %g before now %g", t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("des: scheduling event at non-finite time %g", t))
	}
	ev := e.schedule(t, dom)
	ev.fn = fn
	ev.shared = shared
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// SetDomain tags the process with its home domain (its core's node).
// Resume events the process schedules — sleeps, wakes — stage under this
// domain in parallel mode.
func (p *Proc) SetDomain(d int32) { p.dom = d }

// Domain returns the process's home domain tag.
func (p *Proc) Domain() int32 { return p.dom }

// CurDomain returns the ambient scheduling domain: the domain of the event
// the serial coordinator is currently dispatching (or last dispatched).
// Worker phases never execute fabric or other shared events, so callers that
// key pool shards on the ambient domain (the fabric's flow free list) only
// ever read it from coordinator context.
func (e *Engine) CurDomain() int32 { return e.curDom }

// WindowStats is a snapshot of the parallel-mode window machinery, for
// tests and benchmarks.
type WindowStats struct {
	Mode      EngineMode
	Domains   int     // staging heaps including the global domain
	Lookahead float64 // current window width
	Floor     float64 // current window floor
	Horizon   float64 // current window horizon
	Staged    int     // events currently staged
	Windows   uint64  // windows opened so far
	Collected uint64  // events promoted out of staging heaps so far
	Workers   int     // resolved phase worker count
	Phases    uint64  // parallel phase rounds executed (a mixed window can run several)
	PhaseEv   uint64  // events dispatched inside phases
	// PhasedWindows counts windows that executed at least one phase round;
	// PhasedWindows/Windows is the phased-window fraction the bench gates
	// report.
	PhasedWindows uint64
}

// WindowStats returns the current parallel-mode counters; the zero value in
// serial mode.
func (e *Engine) WindowStats() WindowStats {
	p := e.par
	if p == nil {
		return WindowStats{Mode: e.mode}
	}
	return WindowStats{
		Mode:          e.mode,
		Domains:       len(p.heaps),
		Lookahead:     p.look,
		Floor:         p.floor,
		Horizon:       p.horizon,
		Staged:        p.staged,
		Windows:       p.windows,
		Collected:     p.collected,
		Workers:       p.workers,
		Phases:        p.phases,
		PhaseEv:       p.phaseEvents,
		PhasedWindows: p.phasedWindows,
	}
}
