// Package des implements a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock through an event queue. Simulated
// processes execute cooperatively: each body runs inside an iter.Pull
// coroutine, and at any instant exactly one of them — or the driver loop on
// the goroutine that called Run — executes. A process that blocks runs the
// dispatch loop itself; when the next event resumes a different process it
// records that process as the hand-off target and yields, and the driver
// switches into the target. Both switches are direct coroutine switches
// that never enter the Go scheduler. Because only one body is ever running,
// process code needs no locking, and runs are bit-for-bit deterministic:
// ties in virtual time are broken by event sequence number.
//
// Coroutines are fungible host resources: a body that returns leaves its
// coroutine on a process-wide idle list and the next process to start, on
// any engine, takes it (coroutine.go).
//
// All interaction with the clock goes through events. A process blocks by
// parking (Park, Sleep) and is released by an event (a timer it scheduled, or
// a Wake issued by another process or callback). Wakeups are themselves
// events, so the order in which concurrently-unblocked processes resume is
// deterministic.
//
// The event queue has two sources, and pop takes the least (time, seq)
// among their heads:
//
//   - a few lanes, FIFOs of events scheduled the same delay d after the
//     then-current time: lanes[0] holds delay zero — zero-sleeps, wakes,
//     eager completions, the majority in collective inner loops — and the
//     rest the pLogP overheads and latencies a simulation charges (Sleep,
//     After), a handful of constants, so nearly every event joins a lane
//     in O(1);
//   - a 4-ary heap for the irregular deadlines (At in the future, and a
//     delay that finds no lane free), chiefly the fabric's flow completions.
//
// Dispatch order is exactly (time, seq) whatever the source: a lane is FIFO
// in that order, because the clock never goes back, fl(now+d) is monotone in
// now and sequence numbers only grow.
//
// Every suspension is an event: a Sleep schedules its resume even when
// nothing else could run first, at the cost of one lane append and pop
// (DESIGN.md §5.2 has the benchmark pairs that retired the shortcut which
// skipped it).
//
// A process may also hand the engine a wait sequence (Steps): a Stepper
// that runs on the process first and then, after each sleep or park it asks
// for, in engine context at the process's resume event. The process is
// switched into only when the sequence is over, so a rendezvous that costs
// a few suspensions costs one hand-off.
//
// Event records are recycled through a free list on the engine, and resume
// events carry their target process and park generation as typed fields
// instead of a capturing closure, so the steady-state Sleep/Park/Wake path
// allocates nothing.
package des

import (
	"fmt"
	"math"
	"sort"
)

// Engine is a discrete-event simulation engine. The zero value is not usable;
// create one with New.
type Engine struct {
	now       float64
	seq       uint64
	processed uint64

	queue    eventHeap          // irregular events in the strict future (at insertion time)
	lanes    [1 + numLanes]lane // fixed-delay FIFOs, lanes[0] for delay zero (see scheduleAfter)
	laneLive int                // events queued in the lanes
	pool     []*event           // free list of recycled event records

	// next is what a dispatch loop running on a process coroutine leaves
	// for the driver before it yields: the process to switch into. Nil means
	// the run is over: the queue drained.
	next *Proc

	procs   []*Proc
	alive   int
	running bool

	// handoffs counts the driver's switches into processes (Handoffs) and
	// heapPushes the events that entered the heap: host-side costs.
	handoffs, heapPushes uint64
}

// New returns an empty engine with the virtual clock at zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// event is one scheduled occurrence. Exactly one of fn (callback event) and
// proc (typed resume event) is set while queued; both are nil once the event
// fired, was cancelled, or sits in the free list.
type event struct {
	at  float64
	seq uint64
	// gen is bumped every time the record is recycled; Timer handles
	// snapshot it so a handle to a fired event can never touch the
	// record's next life.
	gen     uint64
	fn      func()
	proc    *Proc  // non-nil: resume proc if it is still parked at parkGen
	parkGen uint64 // park generation the resume targets
	idx     int    // heap position; laneIdx(i) in lane i; -1 detached
	// prev and next link the event into its lane.
	prev, next *event
}

// laneIdx is the idx of an event queued in lane i; laneOf inverts it.
func laneIdx(i int) int  { return -2 - i }
func laneOf(idx int) int { return -2 - idx }

// numLanes is how many distinct non-zero delays can queue outside the heap at
// once. Collective traffic is dominated by two (ShmLatency, NetLatency); the
// others absorb a personality's send overhead and small-copy times.
const numLanes = 4

// lane is a FIFO of events scheduled the same delay d after the then-current
// time. Appending keeps it in (time, seq) order without a comparison, so its
// head is its least event. An empty lane takes the next delay with no lane.
type lane struct {
	d          float64
	head, tail *event
}

func (l *lane) push(ev *event) {
	ev.prev = l.tail
	if l.tail == nil {
		l.head = ev
	} else {
		l.tail.next = ev
	}
	l.tail = ev
}

func (l *lane) remove(ev *event) {
	if ev.prev == nil {
		l.head = ev.next
	} else {
		ev.prev.next = ev.next
	}
	if ev.next == nil {
		l.tail = ev.prev
	} else {
		ev.next.prev = ev.prev
	}
	ev.prev, ev.next = nil, nil
}

// alloc takes an event record from the free list (or allocates one) and
// stamps it with the next sequence number.
func (e *Engine) alloc(at float64) *event {
	var ev *event
	if n := len(e.pool); n > 0 {
		ev = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
	} else {
		ev = &event{}
	}
	ev.at = at
	ev.seq = e.seq
	e.seq++
	return ev
}

// release clears an event record and returns it to the free list. The
// generation bump invalidates any Timer handle still pointing here.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.proc = nil
	ev.gen++
	ev.idx = -1
	e.pool = append(e.pool, ev)
}

// schedule allocates an event at absolute time t and enqueues it: the
// zero-delay lane for the current timestamp, the heap for the future.
func (e *Engine) schedule(t float64) *event {
	if t == e.now {
		return e.laneAppend(0, t)
	}
	ev := e.alloc(t)
	e.heapPushes++
	e.queue.push(ev)
	return ev
}

// scheduleAfter allocates an event d after now and enqueues it: the
// zero-delay lane when now+d rounds to now, else the lane that holds delay d,
// else an empty lane (which takes d), else the heap.
func (e *Engine) scheduleAfter(d float64) *event {
	t := e.now + d
	if t == e.now {
		return e.laneAppend(0, t)
	}
	free := -1
	for i := 1; i < len(e.lanes); i++ {
		l := &e.lanes[i]
		if l.head == nil {
			if free < 0 {
				free = i
			}
		} else if l.d == d {
			return e.laneAppend(i, t)
		}
	}
	if free < 0 {
		return e.schedule(t)
	}
	e.lanes[free].d = d
	return e.laneAppend(free, t)
}

func (e *Engine) laneAppend(i int, t float64) *event {
	ev := e.alloc(t)
	ev.idx = laneIdx(i)
	e.lanes[i].push(ev)
	e.laneLive++
	return ev
}

// pop removes and returns the globally least (time, seq) event, or nil when
// none remain.
func (e *Engine) pop() *event {
	var min *event
	if len(e.queue) > 0 {
		min = e.queue[0]
	}
	ln := -1
	if e.laneLive > 0 {
		for i := range e.lanes {
			if h := e.lanes[i].head; h != nil && (min == nil || eventLess(h, min)) {
				min, ln = h, i
			}
		}
	}
	switch {
	case min == nil:
		return nil
	case ln < 0:
		return e.queue.popMin()
	}
	e.lanes[ln].remove(min)
	e.laneLive--
	min.idx = -1
	return min
}

// Timer is a handle to a scheduled event that can be cancelled. Timers are
// plain values; the zero Timer is stopped. A Timer holds a generation
// snapshot, so handles to fired events are inert — they can never cancel
// the recycled record's next occupant.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint64
}

// Cancel prevents the timer's callback from firing. The event leaves its
// queue at once — unlinked from its lane in O(1), removed from the heap in
// O(log n) — so heavily rescheduled timers (the fabric re-arms one
// completion timer per flow component) leave no dead entries behind.
// Cancelling an already fired or cancelled timer is a no-op. Cancel also
// drops the handle's references so a long-lived cancelled Timer does not pin
// the engine or its queues.
func (t *Timer) Cancel() {
	if t == nil || t.ev == nil {
		return
	}
	ev, eng := t.ev, t.eng
	t.ev = nil
	t.eng = nil
	if ev.gen != t.gen {
		return // already fired or recycled
	}
	switch {
	case ev.idx >= 0:
		eng.queue.removeAt(ev.idx)
	case ev.idx != -1:
		eng.lanes[laneOf(ev.idx)].remove(ev)
		eng.laneLive--
	default:
		return
	}
	eng.release(ev)
}

// Stopped reports whether the timer was cancelled or already fired.
func (t *Timer) Stopped() bool { return t == nil || t.ev == nil || t.ev.gen != t.gen }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently corrupt causality.
func (e *Engine) At(t float64, fn func()) Timer {
	e.checkTime(t)
	ev := e.schedule(t)
	ev.fn = fn
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// After schedules fn to run d seconds of virtual time from now.
func (e *Engine) After(d float64, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %g", d))
	}
	e.checkTime(e.now + d)
	ev := e.scheduleAfter(d)
	ev.fn = fn
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

func (e *Engine) checkTime(t float64) {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling event at %g before now %g", t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("des: scheduling event at non-finite time %g", t))
	}
}

// Proc is a simulated process: a body on a coroutine whose execution is
// interleaved with virtual time under engine control.
type Proc struct {
	eng  *Engine
	id   int
	name string
	// body is the process function until the process starts; co is the
	// coroutine it runs on, from its first resume until it exits.
	body func(*Proc)
	co   *coroutine

	// parkGen counts parks; resume events carry the generation they
	// target so stale resumes (a Wake racing a timer, or vice versa)
	// are ignored instead of corrupting the handoff.
	parkGen     uint64
	parkedFlag  bool
	wakeable    bool
	pendingWake bool
	done        bool
	started     bool

	// bypass is a mark the engine never reads (see SetBypass).
	bypass bool

	// awaiting is set from AwaitBegin until the completion fires (see
	// coroutine.awaitDone).
	awaiting bool
}

// ID returns the process's spawn index, unique within its engine.
func (p *Proc) ID() int { return p.id }

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.eng.now }

// SetBypass sets a per-process mark the engine itself never reads: the shm
// and mpi layers consult it to charge a small copy or reduction as a plain
// Sleep instead of a fabric flow. It lives here because shm and knem see a
// rank only as its *Proc.
func (p *Proc) SetBypass(on bool) { p.bypass = on }

// Bypass reports the mark set by SetBypass.
func (p *Proc) Bypass() bool { return p.bypass }

// Spawn creates a process that will start executing body at the current
// virtual time. body runs on a coroutine under the engine's cooperative
// scheduler; when body returns the process terminates.
func (e *Engine) Spawn(name string, body func(*Proc)) *Proc {
	p := &Proc{eng: e, id: len(e.procs), name: name, body: body}
	// A spawned process starts parked at generation 0; its start is an
	// ordinary typed resume event at the current time.
	p.parkedFlag = true
	e.procs = append(e.procs, p)
	e.alive++
	e.resumeEventFor(p, 0, e.now)
	return p
}

// run is the process's life on its coroutine: the body, then — the exiting
// process still holds the baton — the dispatch loop until the baton moves.
func (p *Proc) run() {
	e := p.eng
	body := p.body
	p.body = nil
	p.parkedFlag = false
	p.started = true
	body(p)
	p.done = true
	e.alive--
	// self is nil — a finished process cannot be resumed.
	e.dispatch(nil)
}

// switchTo runs p on its coroutine until it parks or exits. Only the driver
// loop calls it (Engine.drive), so a coroutine is taken and handed in
// outside any coroutine: it reaches the idle list only once its
// switch back has completed, never while another engine could take it and
// resume it mid-yield.
func (p *Proc) switchTo() {
	c := p.co
	if c == nil {
		c = takeCoroutine()
		c.p, p.co = p, c
	}
	c.next()
	if p.done {
		p.co = nil
		handIn(c)
	}
}

// park yields control until the resume event suspend armed fires. The
// parking process itself runs the engine's dispatch loop: if the next
// dispatch is this process's own resume, it just keeps running and no
// switch happens at all; otherwise dispatch left the hand-off target with
// the driver and this coroutine yields to it.
func (p *Proc) park() {
	if !p.eng.dispatch(p) && !p.co.yield(struct{}{}) {
		panic(unwind{}) // the run ended with p parked (Engine.end)
	}
	p.parkedFlag = false
	p.wakeable = false
}

// resumeEventFor schedules a typed resume of p at time t that is valid only
// for the park generation gen. No closure, no allocation in steady state:
// the target rides in the pooled event record itself.
func (e *Engine) resumeEventFor(p *Proc, gen uint64, t float64) {
	ev := e.schedule(t)
	ev.proc = p
	ev.parkGen = gen
}

// Wait is a suspension a Stepper asks of its process: Done, Parked, or a
// SleepFor, which is its sleep length.
type Wait float64

const (
	// Done ends a stepped wait: the process runs on from Steps.
	Done Wait = -1
	// Parked suspends the process as Park does.
	Parked Wait = -2
)

// SleepFor suspends the process as Sleep(d) does.
func SleepFor(d float64) Wait {
	if d < 0 {
		panic(fmt.Sprintf("des: negative sleep %g", d))
	}
	return Wait(d)
}

// A Stepper is a wait sequence a process hands the engine (see Steps).
//
// A Step may drive another Stepper's Step as a sub-step: it returns the
// sub-step's Wait until the sub-step reports Done, then goes on with its
// own sequence, so one Steps can chain waits that each keep their own
// state — a barrier, then a copy, then another barrier.
type Stepper interface {
	// Step advances the sequence and returns the suspension it needs next,
	// or Done. It runs on p's behalf, on p or in engine context, and must
	// not block: no Sleep, Park, Suspend, AwaitEnd or Steps.
	Step(p *Proc) Wait
}

// Steps runs the wait sequence s. Its first Step runs here, on the process;
// every later one runs in engine context at the process's resume event after
// the suspension the previous Step asked for, so the process is switched
// into once, when a Step returns Done, however many suspensions the
// sequence takes. Each suspension behaves exactly as the Sleep or Park it
// stands for: same events, same latched-wake rules.
func (p *Proc) Steps(s Stepper) {
	p.co.step = s
	if !p.stepOn() {
		p.park()
	}
}

// stepOn runs the process's Stepper — from Steps, on the process, and then
// at each of its resume events, in engine context — until the Stepper
// suspends it (false) or reports Done (true: the process itself runs next).
func (p *Proc) stepOn() bool {
	// What park and Park do once the process resumes; nothing at the start.
	p.parkedFlag = false
	if p.wakeable {
		p.wakeable = false
		p.pendingWake = false
	}
	s := p.co.step
	for {
		w := s.Step(p)
		if w == Done {
			p.co.step = nil
			return true
		}
		if p.suspend(w) {
			return false
		}
	}
}

// suspend arms the suspension w and reports true, or reports false when w
// is over at once: a park a latched Wake satisfied.
func (p *Proc) suspend(w Wait) bool {
	park := w == Parked
	if park {
		if p.pendingWake {
			p.pendingWake = false
			return false
		}
	} else {
		ev := p.eng.scheduleAfter(float64(w))
		ev.proc = p
		ev.parkGen = p.parkGen + 1
	}
	p.parkGen++
	p.parkedFlag = true
	p.wakeable = park
	return true
}

// Suspend blocks the process for one suspension a Stepper could ask for:
// SleepFor(d) is Sleep(d), Parked is Park, and Done returns at once.
func (p *Proc) Suspend(w Wait) {
	switch w {
	case Done:
	case Parked:
		p.Park()
	default:
		p.Sleep(float64(w))
	}
}

// Sleep suspends the process for d seconds of virtual time. A zero sleep is
// still a scheduling point: events already queued at the current timestamp
// run before the process resumes.
func (p *Proc) Sleep(d float64) {
	if p.suspend(SleepFor(d)) {
		p.park()
	}
}

// Park suspends the process until another process or event calls Wake. If a
// Wake was delivered since the last Park, Park consumes it and returns
// immediately (there are no lost-wakeup races: execution is single-threaded).
func (p *Proc) Park() {
	if p.suspend(Parked) {
		p.park()
		p.pendingWake = false
	}
}

// Wake schedules the parked process to resume at the current virtual time.
// If the process is not parked (or is parked in Sleep), the wake is latched
// and consumed by its next Park. Wake must be called from engine context
// (another process's body or an event callback), never from outside Run.
func (p *Proc) Wake() {
	if p.done || p.pendingWake {
		return
	}
	p.pendingWake = true
	if p.parkedFlag && p.wakeable {
		p.eng.resumeEventFor(p, p.parkGen, p.eng.now)
	}
}

// DeadlockError reports that Run ran out of events while processes were still
// parked with no pending wakeups.
type DeadlockError struct {
	Time   float64
	Parked []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("des: deadlock at t=%g: %d process(es) parked forever: %v",
		d.Time, len(d.Parked), d.Parked)
}

// Run executes events until none remain. It returns a *DeadlockError if
// processes are still alive when the queue drains, otherwise nil. A panic in
// a process body or event callback surfaces on the goroutine that called
// Run. After a deadlock or a panic, Run ends the processes still alive and
// drops the events still queued (see end), so the engine can be Reset.
func (e *Engine) Run() error {
	if e.running {
		panic("des: Run called reentrantly")
	}
	e.running = true
	defer e.end()
	e.drive()
	if e.alive > 0 {
		var names []string
		for _, p := range e.procs {
			if !p.done && p.started {
				names = append(names, p.name)
			}
		}
		sort.Strings(names)
		return &DeadlockError{Time: e.now, Parked: names}
	}
	return nil
}

// unwind is the panic that unwinds the body of a process parked when its
// run ended; its coroutine recovers it (newCoroutine).
type unwind struct{}

// end closes a Run. Every process still alive — parked at a deadlock, or
// left behind by a panic — is marked done and its coroutine stopped: the
// parked body unwinds, running its deferred calls, and the coroutine ends
// instead of returning to the idle list. Events left queued go unfired.
func (e *Engine) end() {
	e.running = false
	for _, p := range e.procs {
		if !p.done {
			p.done = true
			if p.co != nil {
				p.co.stop()
				p.co = nil
			}
		}
	}
	e.alive = 0
	for ev := e.pop(); ev != nil; ev = e.pop() {
		e.release(ev)
	}
}

// drive is the driver loop, on Run's goroutine. The engine has no scheduler
// of its own — whoever blocks or exits runs the dispatch loop — so the driver
// dispatches only until the first process starts, and from then on does what
// a dispatch loop on a coroutine cannot: switch into the process it selected.
// It returns when a dispatch loop ends the run.
func (e *Engine) drive() {
	e.dispatch(nil)
	for e.next != nil {
		p := e.next
		e.next = nil
		e.handoffs++
		p.switchTo()
	}
}

// dispatch executes events on the caller until the baton moves. self is the
// process parking on this call (nil for the driver and for exiting
// processes). It returns true when self's own resume event was the next
// dispatch: the caller just keeps running. Otherwise it returns false, having
// left the driver its instruction — Engine.next, nil at end of run — and a
// caller on a coroutine must yield.
func (e *Engine) dispatch(self *Proc) bool {
	for {
		ev := e.pop()
		if ev == nil {
			return false
		}
		if ev.at < e.now {
			panic("des: time went backwards")
		}
		e.now = ev.at
		e.processed++
		if p := ev.proc; p != nil {
			gen := ev.parkGen
			e.release(ev)
			if !p.done && p.parkedFlag && p.parkGen == gen {
				if c := p.co; c != nil && c.step != nil && !p.stepOn() {
					continue
				}
				if p == self {
					return true
				}
				e.next = p
				return false
			}
			continue
		}
		fn := ev.fn
		e.release(ev)
		fn()
	}
}

// Reset returns the engine to its pristine post-New state while keeping the
// event free list warm. All simulation state — clock, sequence counter,
// processed count, process table — is cleared, so a fresh set of Spawns
// followed by Run replays bit-identically to a run on a brand new engine:
// alloc fully re-stamps recycled records, and with seq back at zero every
// (time, seq) tie-break is reproduced exactly. Reset panics if called
// mid-Run, while spawned processes are still alive (their coroutines would
// outlive the state they reference) or while events are still queued, which
// a Run that returned never leaves behind.
func (e *Engine) Reset() {
	if e.running {
		panic("des: Reset called during Run")
	}
	if e.alive > 0 {
		panic(fmt.Sprintf("des: Reset with %d live process(es)", e.alive))
	}
	if n := e.Pending(); n > 0 {
		panic(fmt.Sprintf("des: Reset with %d event(s) queued", n))
	}
	e.now = 0
	e.seq = 0
	e.processed = 0
	e.procs = e.procs[:0]
}

// Pending returns the number of events currently scheduled. Cancelled timers
// leave their queue at once and do not count.
func (e *Engine) Pending() int { return len(e.queue) + e.laneLive }

// Processed returns the number of events dispatched so far — the raw event
// throughput measure the fabric benchmarks report as events/sec.
func (e *Engine) Processed() uint64 { return e.processed }

// Handoffs returns how many times the driver has switched into a process:
// a host-side cost the stepped waits (Steps) keep down, which never
// reaches a result.
func (e *Engine) Handoffs() uint64 { return e.handoffs }

// PoolSize returns the number of recycled event records currently in the
// free list (observability for tests and leak hunts).
func (e *Engine) PoolSize() int { return len(e.pool) }

// eventHeap is a 4-ary min-heap ordering events by (time, sequence). It is
// hand-rolled rather than container/heap: the comparisons inline, there are
// no interface dispatches, and the wider fan-out halves the tree depth — the
// heap is on the dispatch path of every strictly-future event.
type eventHeap []*event

// eventLess is the total dispatch order: time, ties broken by sequence.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// popMin removes and returns the least event.
func (h *eventHeap) popMin() *event {
	old := *h
	min := old[0]
	n := len(old) - 1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		old[0] = last
		last.idx = 0
		h.down(0)
	}
	min.idx = -1
	return min
}

// removeAt removes the event at heap position i (Timer.Cancel).
func (h *eventHeap) removeAt(i int) {
	old := *h
	n := len(old) - 1
	removed := old[i]
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if i < n {
		old[i] = last
		last.idx = i
		if !h.down(i) {
			h.up(i)
		}
	}
	removed.idx = -1
}

func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].idx = i
		i = parent
	}
	h[i] = ev
	ev.idx = i
}

// down sifts position i toward the leaves, reporting whether it moved.
func (h eventHeap) down(i int) bool {
	n := len(h)
	ev := h[i]
	start := i
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], h[m]) {
				m = j
			}
		}
		if !eventLess(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].idx = i
		i = m
	}
	h[i] = ev
	ev.idx = i
	return i != start
}
