// In-window parallel event execution for the conservative engine.
//
// PR 7's window machinery staged and promoted events in per-domain heaps but
// still dispatched every promoted event from one goroutine. This file adds
// the execution half of the conservative protocol: runs of confined events
// are handed to workers that each run a private dispatch loop — a per-domain
// now-bucket + heap, a per-domain driver loop so a domain's process
// coroutines resume on their owning worker, and a per-domain free list shard
// so concurrent allocation never contends on one pool head.
//
// # Eligibility (the mixed-window confinement census)
//
// A phase executes the maximal prefix of the window's remaining population
// that is provably independent per domain. The census computes the residue
// bound B — the least (time, seq) of any event that must dispatch serially:
// a global-domain event, a *Shared event (the fabric schedules all of its
// events as shared: its sync/fill/completion machinery reads and writes
// cross-domain state), or a resume of a process that has not declared
// confinement (Proc.EnterConfined). Every confined event strictly below B
// joins its domain's phase set; everything else is the residue, which stays
// in the coordinator's run queue and dispatches serially after the phase
// barrier. A phase runs when at least two domains contribute (and the
// resolved worker count is at least two, and no MaxTime horizon can trip
// inside the window); B = +Inf — no residue at all — recovers the PR 8
// whole-window phase as a special case.
//
// The census runs at window open and re-arms after each serially dispatched
// residue event, so one window can interleave several phase rounds with
// residue stretches (a leader's inter-node sends between two bracketed
// intra-node stretches, for instance).
//
// Soundness of the prefix: confined code cannot create work below B outside
// its own phase set — same-domain sub-horizon events stay in the private
// queue and are dispatched in-phase, beyond-horizon events ride the outbox
// (and the horizon is above every in-window bound), and waking or scheduling
// for an unconfined process from inside a phase panics. The phase therefore
// executes exactly the events the serial engine would have dispatched before
// B, in the same per-domain order.
//
// Eligibility is a prediction; the runtime backstop is that engine entry
// points reject cross-domain work during a phase with a typed
// CausalityError (OpConfine) instead of diverging silently.
//
// # Determinism: provisional seq blocks + barrier-time renumbering
//
// Events allocated inside a phase draw provisional sequence numbers from a
// per-domain block (provSeqBase | local counter). Within one domain the
// local allocation order equals the serial engine's allocation order
// restricted to that domain (confined execution is independent), and every
// provisional seq compares greater than every pre-window (real) seq, so each
// worker's local (time, seq) dispatch order equals the serial dispatch order
// restricted to its domain.
//
// At the window barrier the coordinator reconstructs the full serial
// interleaving: each worker logged its dispatches as (at, seq, nAlloc)
// records, and merging the per-domain record streams by (time, resolved seq)
// replays the exact order the serial engine would have dispatched the same
// events in. Walking that merge while handing out real sequence numbers — in
// allocation order within each dispatch — assigns every in-phase allocation
// the very seq the serial engine would have given it. A stream head is
// always resolvable: an in-phase event is allocated during an earlier
// dispatch of its own domain's stream, so by the time its record reaches the
// head, its final seq is known. Surviving events (per-worker outboxes of
// beyond-horizon work) are rewritten to their final seqs and merged into the
// coordinator's staging heaps, so the committed event log — and every
// downstream (time, seq) tie-break — is hex-identical to serial by
// construction.
//
// The Sleep lone-runner fast path is replicated per worker with the same
// observables (one seq, one processed event, clock movement) plus a
// synthetic dispatch record at the elided resume's (time, seq), so the
// renumbering attributes the sleeper's subsequent allocations to exactly the
// position the serial engine would.
package des

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"hierknem/internal/san"
)

// provSeqBase is the base of every provisional in-phase sequence block. Real
// seqs count events since Reset and stay far below 1<<63, so every
// provisional seq compares greater than every real seq — which is the serial
// order, since in-window allocations happen after all pre-window ones.
const provSeqBase = uint64(1) << 63

// outboxIdx marks an event parked in a worker outbox (neither heap, bucket,
// nor staging).
const outboxIdx = -3

// wsQueuedDom is the event.inDom sentinel for an event sitting in a domain
// worker's private heap during a phase. With mixed windows both a worker
// queue and the frozen coordinator run queue hold events with idx >= 0, so
// Timer.Cancel needs the marker to pick the right heap. Never visible
// outside a phase: pop and the barrier leftover flush restore -1.
const wsQueuedDom int32 = -2

// maxCensusFails bounds failed census attempts per window. Each failure
// costs a run-queue drain and restore, and a failed census can only flip to
// success after a residue dispatch raises the bound or changes the
// population, so the census re-arms per residue dispatch but gives up for
// the window after this many misses.
const maxCensusFails = 8

// dispRec is one worker dispatch, logged for the barrier-time renumbering:
// the dispatched event's (time, seq) and the number of sequence numbers the
// dispatch's execution consumed (event allocations plus Sleep fast paths).
type dispRec struct {
	at     float64
	seq    uint64 // provisional (>= provSeqBase) or real
	nAlloc uint32
}

// wstate is one domain's private dispatch state during a parallel phase.
// Exactly one worker goroutine (or a process coroutine it switched into)
// touches a wstate at a time; distinct domains' wstates are disjoint.
type wstate struct {
	e      *Engine
	dom    int32
	active bool // begin..merge; read-only while workers run

	now       float64
	queue     eventHeap
	bucket    []*event
	bucketPos int
	processed uint64

	// boundAt/boundSeq is the phase's residue bound B: the private dispatch
	// loop stops before the first event at or beyond it, and the barrier
	// flushes whatever remains to the coordinator. +Inf when the window has
	// no residue (the PR 8 whole-window phase).
	boundAt  float64
	boundSeq uint64

	// pool is this domain's event free-list shard: in-phase allocation and
	// release never touch the engine's global pool, so workers do not
	// contend on one head.
	pool []*event

	// allocs counts in-phase sequence consumptions; allocation k carries
	// provisional seq provSeqBase+k and finals[k] receives its real seq at
	// the barrier.
	allocs      uint64
	finals      []uint64
	allocCursor int

	disp   []dispRec
	outbox []*event

	current *Proc
	// next is the hand-off target a dispatch loop on a process coroutine
	// leaves for the worker's driver loop (Engine.next's counterpart).
	next *Proc

	// pad keeps adjacent wstates' hot heads (pool, queue, bucket) out of
	// one cache line: workers hammer their own shard while neighbors do
	// the same.
	_ [64]byte
}

// SetWorkers fixes the number of workers parallel phases fan out to. n == 0
// (the default) resolves to min(GOMAXPROCS, 8) but at least 2, so the window
// machinery stays exercised even on one-core hosts. n == 1 disables
// in-window parallelism entirely: the engine degenerates to the serial
// organization (no staging, no windows), which is the small-host fast path —
// parallel mode at one worker tracks serial throughput and allocation
// behavior. Must not be called mid-Run.
func (e *Engine) SetWorkers(n int) {
	if e.running {
		panic("des: SetWorkers during Run")
	}
	if n < 0 {
		panic(fmt.Sprintf("des: SetWorkers(%d)", n))
	}
	e.workersReq = n
	if e.par != nil {
		e.initParallel()
	}
}

// Workers returns the resolved phase worker count.
func (e *Engine) Workers() int { return resolveWorkers(e.workersReq) }

func resolveWorkers(req int) int {
	if req > 0 {
		return req
	}
	n := runtime.GOMAXPROCS(0)
	if n > parCollectMaxProcs {
		n = parCollectMaxProcs
	}
	if n < 2 {
		n = 2
	}
	return n
}

// InWorkerPhase reports whether a parallel in-window phase is executing.
// Layers above the engine (mpi, fabric) consult it to reject cross-domain
// operations from confined code with a typed error instead of racing.
func (e *Engine) InWorkerPhase() bool {
	p := e.par
	return p != nil && p.inPhase
}

// EnterConfined declares that the process will, until ExitConfined, touch
// only state belonging to domain dom (>= 1): no cross-domain messages, no
// global-domain scheduling, no fabric flows. Windows whose runnable events
// all belong to confined processes execute their domains on parallel
// workers; the declaration is checked at runtime by the engine and the
// layers above it, so a violation is a loud CausalityError, never a silent
// divergence.
func (p *Proc) EnterConfined(dom int32) {
	if dom < 1 {
		panic(fmt.Sprintf("des: EnterConfined(%d): confined domains are >= 1", dom))
	}
	if p.confined {
		panic(fmt.Sprintf("des: EnterConfined(%d): process %s is already confined to domain %d (nested confinement brackets are unbalanced)", dom, p.name, p.dom))
	}
	p.dom = dom
	p.confined = true
}

// ExitConfined leaves the confined region. The process pays delay seconds of
// virtual time — the caller passes its partition's lookahead (the mpi layer
// passes the network latency) — which pushes the unconfined continuation
// beyond the current window horizon in every engine mode, so the exit is
// observed by other domains only across a window boundary and the event log
// stays mode-independent. After the delay the process is re-homed to the
// global domain. In parallel mode the delay must be at least the lookahead;
// a shorter exit would re-enter the running window unconfined and is
// rejected by the schedule path with a CausalityError.
func (p *Proc) ExitConfined(delay float64) {
	if !p.confined {
		panic("des: ExitConfined on process " + p.name + " without a matching EnterConfined (confinement brackets are unbalanced)")
	}
	p.confined = false
	p.Sleep(delay)
	p.dom = 0
}

// Confined reports the process's confinement declaration.
func (p *Proc) Confined() bool { return p.confined }

// wsFor returns the domain's wstate; bounds are the caller's invariant.
func (p *parstate) wsFor(dom int32) *wstate { return &p.ws[dom] }

// phaseWS returns the domain's wstate when that domain is part of the
// running phase, nil otherwise. Engine entry points reached from worker
// context use it to turn cross-domain operations — waking or scheduling for
// a process homed outside the phase's active domains — into a typed error
// instead of a data race on a foreign domain's queues.
func (p *parstate) phaseWS(dom int32) *wstate {
	if dom >= 1 && int(dom) < len(p.ws) {
		if ws := &p.ws[dom]; ws.active {
			return ws
		}
	}
	return nil
}

// confineViolation builds the OpConfine error for a cross-domain operation
// observed inside a running phase.
func (p *parstate) confineViolation(dom int32, at float64) *CausalityError {
	return &CausalityError{Op: OpConfine, Domain: dom, At: at, Floor: p.floor, Lookahead: p.look}
}

// ensureWS sizes the per-domain wstate table to match the staging heaps.
func (e *Engine) ensureWS(n int) {
	p := e.par
	if len(p.ws) >= n {
		return
	}
	ws := make([]wstate, n)
	copy(ws, p.ws)
	p.ws = ws
}

// phaseEvent reports whether the event may execute inside a parallel phase:
// a live, non-shared event of a non-global domain whose target process (for
// resumes) or scheduling process (for confined Proc.After callbacks) has
// declared confinement.
func phaseEvent(ev *event) bool {
	if ev.shared || ev.dom < 1 || ev.dead() {
		return false
	}
	if pr := ev.proc; pr != nil {
		return pr.confined
	}
	return ev.confined
}

// censusScratch runs the mixed-window confinement census over the collected
// scratch. It computes the residue bound B — the least (time, seq) of any
// event that must dispatch serially — and carves the phase population: every
// confined event strictly below B. When at least two domains contribute, the
// residue moves to the run queue, the phase sets stay in scr, activeScratch
// lists the contributing domains, the bound is stored for the worker loops,
// and the census reports true. Otherwise everything stays in scr (the caller
// restores or promotes it) and the per-window failure budget is charged.
//
// The scratch must hold no dead events: staging heaps never do (Cancel
// removes staged events eagerly), and censusFromQueue recycles dead bucket
// entries while collecting. A dead event here would define a spurious bound.
func (e *Engine) censusScratch() bool {
	p := e.par
	bAt, bSeq := math.Inf(1), ^uint64(0)
	for di := range p.scr {
		for _, ev := range p.scr[di] {
			if di >= 1 && phaseEvent(ev) {
				continue
			}
			if ev.at < bAt || (ev.at == bAt && ev.seq < bSeq) {
				bAt, bSeq = ev.at, ev.seq
			}
		}
	}
	below := func(ev *event) bool {
		return ev.at < bAt || (ev.at == bAt && ev.seq < bSeq)
	}
	active := p.activeScratch[:0]
	for di := 1; di < len(p.scr); di++ {
		for _, ev := range p.scr[di] {
			if phaseEvent(ev) && below(ev) {
				active = append(active, int32(di))
				break
			}
		}
	}
	p.activeScratch = active
	if len(active) < 2 {
		p.censusFails++
		if p.censusFails >= maxCensusFails {
			p.censusOK = false
		}
		return false
	}
	for di := range p.scr {
		scr := p.scr[di]
		keep := scr[:0]
		for _, ev := range scr {
			if di >= 1 && phaseEvent(ev) && below(ev) {
				keep = append(keep, ev)
			} else {
				e.queue.push(ev)
			}
		}
		for i := len(keep); i < len(scr); i++ {
			scr[i] = nil
		}
		p.scr[di] = keep
	}
	p.boundAt, p.boundSeq = bAt, bSeq
	return true
}

// censusFromQueue re-runs the confinement census mid-window: the run queue
// and now-bucket are collected into the promotion scratch by domain (dead
// bucket entries are recycled on the way) and censusScratch partitions them
// exactly as at window open. On failure everything returns to the run queue;
// the restore is order-exact because the heap's (time, seq) order is the
// dispatch order — the now-bucket is an optimization, not an ordering
// domain: every bucket event carries a larger seq than any queued event at
// the same instant.
func (e *Engine) censusFromQueue() bool {
	p := e.par
	for _, ev := range e.bucket[e.bucketPos:] {
		if ev.dead() {
			e.release(ev)
			continue
		}
		e.bucketLive--
		ev.idx = -1
		di := int(ev.dom)
		if di < 0 || di >= len(p.scr) {
			di = 0
		}
		p.scr[di] = append(p.scr[di], ev)
	}
	e.bucket = e.bucket[:0]
	e.bucketPos = 0
	for len(e.queue) > 0 {
		ev := e.queue.popMin()
		di := int(ev.dom)
		if di < 0 || di >= len(p.scr) {
			di = 0
		}
		p.scr[di] = append(p.scr[di], ev)
	}
	if e.censusScratch() {
		return true
	}
	e.restoreScratch()
	return false
}

// runPhase executes one window's domains on parallel workers and merges the
// results so the engine state afterwards is exactly what serial dispatch of
// the same window would have produced. Runs on the driver only: a process
// coroutine blocked in the join could be the one a worker needs to resume.
func (e *Engine) runPhase(active []int32) {
	p := e.par
	e.ensureWS(len(p.heaps))
	for _, d := range active {
		ws := p.wsFor(d)
		ws.begin(e, d, p.floor, p.scr[d], p.boundAt, p.boundSeq)
	}
	nw := p.workers
	if nw > len(active) {
		nw = len(active)
	}
	if cap(p.panics) < nw {
		p.panics = make([]any, nw)
	}
	panics := p.panics[:nw]
	for i := range panics {
		panics[i] = nil
	}
	p.inPhase = true
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	for w := 0; w < nw; w++ {
		wg.Add(1)
		//hierflow:serial phase workers own disjoint domains (claimed via the atomic cursor); each domain's events, processes and pool shard are touched by exactly one worker at a time, and the coordinator only resumes after wg.Wait
		go func(wi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[wi] = r
				}
			}()
			for {
				k := int(cursor.Add(1)) - 1
				if k >= len(active) {
					return
				}
				p.wsFor(active[k]).run()
			}
		}(w)
	}
	wg.Wait()
	p.inPhase = false
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
	e.mergePhase(active)
	for _, d := range active {
		p.scr[d] = p.scr[d][:0]
	}
	p.phases++
	if !p.winPhased {
		p.winPhased = true
		p.phasedWindows++
	}
}

// begin seeds the domain's private queue with its phase set and arms the
// residue bound the private dispatch loop must stop at.
func (ws *wstate) begin(e *Engine, dom int32, floor float64, scr []*event, bAt float64, bSeq uint64) {
	ws.e = e
	ws.dom = dom
	ws.active = true
	ws.now = floor
	ws.boundAt = bAt
	ws.boundSeq = bSeq
	ws.processed = 0
	ws.allocs = 0
	ws.allocCursor = 0
	ws.disp = ws.disp[:0]
	ws.outbox = ws.outbox[:0]
	ws.current = nil
	for i, ev := range scr {
		ev.inDom = wsQueuedDom
		ws.queue.push(ev)
		scr[i] = nil
	}
}

// run drains the domain's private queue: the worker is the domain's driver
// loop, switching into each process a dispatch loop selects, exactly like
// Engine.drive does for the serial engine.
func (ws *wstate) run() {
	ws.dispatch(nil)
	for p := ws.next; p != nil; p = ws.next {
		ws.next = nil
		p.switchTo()
	}
}

// beforeBound reports whether the event dispatches strictly before the
// phase's residue bound. Provisional seqs compare correctly: an in-phase
// allocation's final seq is drawn after every pre-phase seq including the
// bound's, so for provisional events the comparison reduces to at < boundAt
// — which is what the huge provisional seq yields.
func (ws *wstate) beforeBound(ev *event) bool {
	return ev.at < ws.boundAt || (ev.at == ws.boundAt && ev.seq < ws.boundSeq)
}

// pop mirrors Engine.pop on the domain's private two-tier queue, stopping at
// the residue bound: a live head at or beyond B stays queued (the barrier
// flushes it to the coordinator) and the phase drains.
func (ws *wstate) pop() *event {
	if ws.bucketPos < len(ws.bucket) {
		if len(ws.queue) > 0 && ws.queue[0].at <= ws.now {
			if !ws.beforeBound(ws.queue[0]) {
				return nil
			}
			ev := ws.queue.popMin()
			ev.inDom = -1
			return ev
		}
		ev := ws.bucket[ws.bucketPos]
		if !ev.dead() && !ws.beforeBound(ev) {
			return nil
		}
		ws.bucket[ws.bucketPos] = nil
		ws.bucketPos++
		if ws.bucketPos == len(ws.bucket) {
			ws.bucket = ws.bucket[:0]
			ws.bucketPos = 0
		}
		ev.idx = -1
		return ev
	}
	if len(ws.queue) > 0 {
		if !ws.beforeBound(ws.queue[0]) {
			return nil
		}
		ev := ws.queue.popMin()
		ev.inDom = -1
		return ev
	}
	return nil
}

// dispatch is the per-domain dispatch loop: the serial engine's loop over
// the domain's private queue. self is the process parking on this call (nil
// for the worker). Returns true when self's own resume was the next
// dispatch; otherwise false, with ws.next set unless the queue drained.
func (ws *wstate) dispatch(self *Proc) bool {
	for {
		ev := ws.pop()
		if ev == nil {
			return false
		}
		if ev.dead() {
			ws.release(ev)
			continue
		}
		if ev.at < ws.now {
			panic("des: time went backwards (phase worker)")
		}
		ws.now = ev.at
		ws.processed++
		ws.disp = append(ws.disp, dispRec{at: ev.at, seq: ev.seq})
		if p := ev.proc; p != nil {
			gen := ev.parkGen
			ws.release(ev)
			if !p.done && p.parkedFlag && p.parkGen == gen {
				ws.current = p
				if p == self {
					return true
				}
				ws.next = p
				return false
			}
			continue
		}
		fn := ev.fn
		ws.release(ev)
		ws.current = nil
		fn()
	}
}

// alloc draws an event record from the domain's pool shard with the next
// provisional sequence number, charging the consumption to the current
// dispatch record.
func (ws *wstate) alloc(at float64) *event {
	var ev *event
	if n := len(ws.pool); n > 0 {
		ev = ws.pool[n-1]
		ws.pool[n-1] = nil
		ws.pool = ws.pool[:n-1]
	} else {
		ev = &event{}
	}
	ev.at = at
	ev.seq = provSeqBase + ws.allocs
	ev.inDom = -1
	ev.shared = false
	ev.confined = false
	ws.allocs++
	ws.disp[len(ws.disp)-1].nAlloc++
	if s := ws.e.san; s != nil {
		s.PoolAlloc(san.KindEvent, ev, "")
	}
	return ev
}

// release returns an event record to the domain's pool shard.
func (ws *wstate) release(ev *event) {
	if s := ws.e.san; s != nil {
		s.PoolRelease(san.KindEvent, ev, "")
	}
	ev.fn = nil
	ev.proc = nil
	ev.gen++
	ev.idx = -1
	ws.pool = append(ws.pool, ev)
}

// schedule enqueues an event at absolute time t for domain dom from inside
// the phase. Same-domain events below the horizon go to the private queue;
// events at or beyond the horizon — including the global-domain resume an
// ExitConfined schedules — park in the outbox for the barrier merge. A
// below-horizon event for another domain is a confinement violation.
func (ws *wstate) schedule(t float64, dom int32) *event {
	par := ws.e.par
	if dom == ws.dom && t < par.horizon {
		ev := ws.alloc(t)
		ev.dom = dom
		if t == ws.now {
			ev.idx = bucketIdx
			ws.bucket = append(ws.bucket, ev)
		} else {
			if t < ws.now {
				panic(fmt.Sprintf("des: scheduling event at %g before now %g", t, ws.now))
			}
			ev.inDom = wsQueuedDom
			ws.queue.push(ev)
		}
		return ev
	}
	if t >= par.horizon {
		ev := ws.alloc(t)
		ev.dom = dom
		ev.idx = outboxIdx
		ws.outbox = append(ws.outbox, ev)
		return ev
	}
	panic(par.confineViolation(dom, t))
}

// resumeEventFor mirrors Engine.resumeEventFor on the domain queue.
func (ws *wstate) resumeEventFor(p *Proc, gen uint64, t float64) {
	ev := ws.schedule(t, p.dom)
	ev.proc = p
	ev.parkGen = gen
}

// sleep is Proc.Sleep routed to the owning domain. The lone-runner fast path
// consumes the same observables as the serial engine (one seq, one processed
// event, clock movement) and logs a synthetic dispatch record at the elided
// resume's (time, seq) so the barrier renumbering attributes the sleeper's
// subsequent allocations to the serial position.
func (ws *wstate) sleep(p *Proc, d float64) {
	t := ws.now + d
	e := ws.e
	// t < boundAt keeps the fast path below the residue bound: at or beyond
	// it, the serial engine may interleave residue work before the resume,
	// so the resume must materialize (it becomes a bound-stopped leftover
	// the coordinator dispatches in true order). Strict comparison suffices:
	// at t == boundAt the resume's final seq is above the bound's.
	if ws.bucketPos == len(ws.bucket) &&
		(len(ws.queue) == 0 || ws.queue[0].at > t) &&
		t < ws.boundAt &&
		t < e.par.horizon &&
		!(e.MaxTime > 0 && t > e.MaxTime) {
		seq := provSeqBase + ws.allocs
		ws.allocs++
		ws.disp[len(ws.disp)-1].nAlloc++
		ws.disp = append(ws.disp, dispRec{at: t, seq: seq})
		ws.processed++
		ws.now = t
		return
	}
	ws.resumeEventFor(p, p.parkGen+1, t)
	p.park(false)
}

// cancelInPhase handles Timer.Cancel while workers run. Events in a private
// queue, bucket or outbox are cancelled directly (the canceller executes on
// that domain's worker — holding a Timer to another domain's event inside a
// confined region is itself a confinement violation, backstopped by the race
// detector); coordinator state — staged heaps and, under mixed windows, the
// frozen run queue holding the residue — is read-only while workers run, so
// those cancels defer to the barrier, where the gen guard makes stale
// cancels inert.
func (e *Engine) cancelInPhase(ev *event, gen uint64) {
	if ev.gen != gen {
		return
	}
	par := e.par
	switch {
	case ev.inDom == wsQueuedDom:
		ws := par.wsFor(ev.dom)
		ws.queue.removeAt(ev.idx)
		ws.release(ev)
	case ev.inDom >= 0, ev.idx >= 0:
		par.defMu.Lock()
		par.defCancels = append(par.defCancels, defCancel{ev: ev, gen: gen})
		par.defMu.Unlock()
	case ev.idx == outboxIdx, ev.idx == bucketIdx:
		// Marked dead in place; the bucket drain or the barrier's outbox
		// sweep recycles the record. The coordinator bucket is empty during
		// a phase (the census collects it), so bucketIdx here is always a
		// worker bucket.
		ev.fn = nil
		ev.proc = nil
	}
}

// defCancel is a Timer.Cancel of a coordinator-owned event — staged in a
// domain heap or frozen in the run queue as mixed-window residue — issued
// from inside a phase and deferred to the barrier (coordinator queues are
// frozen while workers run). Application order is irrelevant: each entry is
// gen-guarded, staged events are unordered until promotion, and a frozen
// residue event cannot fire before the barrier applies the cancel.
type defCancel struct {
	ev  *event
	gen uint64
}

// phaseHead is a replay-merge stream head: one domain's next undispatched
// log record.
type phaseHead struct {
	ws  *wstate
	idx int
}

// mergePhase commits a finished phase: deferred cancels apply, the serial
// interleaving is replayed to renumber in-phase allocations, outboxes merge
// into the staging heaps under their final seqs, and the engine's clock,
// sequence and processed counters advance to exactly the serial values.
func (e *Engine) mergePhase(active []int32) {
	p := e.par
	for _, dc := range p.defCancels {
		ev := dc.ev
		if ev.gen != dc.gen {
			continue
		}
		switch {
		case ev.inDom >= 0:
			p.heaps[ev.inDom].removeAt(ev.idx)
			p.staged--
			ev.inDom = -1
			e.release(ev)
		case ev.idx >= 0:
			// Mixed-window residue frozen in the run queue.
			e.queue.removeAt(ev.idx)
			e.release(ev)
		}
	}
	p.defCancels = p.defCancels[:0]

	// Replay: merge the per-domain dispatch streams by (time, resolved seq),
	// assigning real seqs to in-phase allocations in serial order.
	heads := p.headScratch[:0]
	resolve := func(ws *wstate, seq uint64) uint64 {
		if seq < provSeqBase {
			return seq
		}
		return ws.finals[seq-provSeqBase]
	}
	less := func(a, b phaseHead) bool {
		ra, rb := a.ws.disp[a.idx], b.ws.disp[b.idx]
		if ra.at != rb.at {
			return ra.at < rb.at
		}
		return resolve(a.ws, ra.seq) < resolve(b.ws, rb.seq)
	}
	var (
		maxNow     = e.now
		lastDom    = e.curDom
		dispatched uint64
	)
	for _, d := range active {
		ws := p.wsFor(d)
		if uint64(cap(ws.finals)) < ws.allocs {
			ws.finals = make([]uint64, ws.allocs)
		}
		ws.finals = ws.finals[:ws.allocs]
		e.processed += ws.processed
		dispatched += uint64(len(ws.disp))
		if ws.now > maxNow {
			maxNow = ws.now
		}
		if len(ws.disp) > 0 {
			heads = append(heads, phaseHead{ws: ws, idx: 0})
			up := len(heads) - 1
			for up > 0 && less(heads[up], heads[(up-1)/2]) {
				heads[up], heads[(up-1)/2] = heads[(up-1)/2], heads[up]
				up = (up - 1) / 2
			}
		}
	}
	siftDown := func() {
		i, n := 0, len(heads)
		for {
			l, r, m := 2*i+1, 2*i+2, i
			if l < n && less(heads[l], heads[m]) {
				m = l
			}
			if r < n && less(heads[r], heads[m]) {
				m = r
			}
			if m == i {
				return
			}
			heads[i], heads[m] = heads[m], heads[i]
			i = m
		}
	}
	seq := e.seq
	var lastWS *wstate
	for len(heads) > 0 {
		h := &heads[0]
		rec := h.ws.disp[h.idx]
		for j := uint32(0); j < rec.nAlloc; j++ {
			h.ws.finals[h.ws.allocCursor] = seq
			h.ws.allocCursor++
			seq++
		}
		lastWS = h.ws
		h.idx++
		if h.idx == len(h.ws.disp) {
			n := len(heads) - 1
			heads[0] = heads[n]
			heads = heads[:n]
		}
		siftDown()
	}
	p.headScratch = heads[:0]
	e.seq = seq
	e.now = maxNow
	if lastWS != nil {
		lastDom = lastWS.dom
	}
	e.curDom = lastDom
	e.current = nil
	p.phaseEvents += dispatched

	// Outboxes: rewrite surviving events to their final seqs and stage them
	// for later windows; recycle events cancelled in place.
	for _, d := range active {
		ws := p.wsFor(d)
		for i, ev := range ws.outbox {
			ws.outbox[i] = nil
			if ev.dead() {
				ws.release(ev)
				continue
			}
			ev.seq = ws.finals[ev.seq-provSeqBase]
			e.stage(ev, ev.dom)
		}
		ws.outbox = ws.outbox[:0]
		// Bound-stopped leftovers: in-phase work at or beyond the residue
		// bound that the private loop could not dispatch. Finalize the seqs
		// and hand the events to the coordinator's run queue — order is
		// preserved because every leftover's (time, final seq) is at or
		// above the bound, and its time is at or above maxNow (workers only
		// advanced their clocks below the bound).
		for len(ws.queue) > 0 {
			ev := ws.queue.popMin()
			ev.inDom = -1
			if ev.seq >= provSeqBase {
				ev.seq = ws.finals[ev.seq-provSeqBase]
			}
			e.queue.push(ev)
		}
		for i, ev := range ws.bucket[ws.bucketPos:] {
			ws.bucket[ws.bucketPos+i] = nil
			if ev.dead() {
				ws.release(ev)
				continue
			}
			if ev.seq >= provSeqBase {
				ev.seq = ws.finals[ev.seq-provSeqBase]
			}
			ev.idx = -1
			e.queue.push(ev)
		}
		ws.bucket = ws.bucket[:0]
		ws.bucketPos = 0
		ws.active = false
	}
	p.refreshDomMin()
}

// RunOnWorkers runs fn(workerIndex) on n concurrent goroutines and waits for
// all of them — the engine's shared fan-out primitive. The window phase's
// siblings reuse it (the fabric's parallel fill folds its private barrier
// onto this) so the repository has one worker fan-out shape. Panics in
// workers are re-raised on the caller after the join.
func RunOnWorkers(n int, fn func(worker int)) {
	if n <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	panics := make([]any, n)
	for w := 0; w < n; w++ {
		wg.Add(1)
		//hierflow:serial fan-out workers receive disjoint work by index from the caller's closure and the caller only resumes after wg.Wait
		go func(wi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[wi] = r
				}
			}()
			fn(wi)
		}(w)
	}
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
}
