package des

import (
	"iter"
	"sync"
)

// coroutine hosts process bodies, one after another: an iter.Pull coroutine
// that runs the process assigned to it, yields whenever that process parks,
// and yields once more, idle, after the process exits. Switching into one
// (next) and out of it (yield) bypasses the Go scheduler.
type coroutine struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// p is the process it hosts, from assignment until the process exits:
	// an idle coroutine references no process, body or engine, so dropped
	// worlds stay collectable whatever the idle list holds.
	p *Proc
	// step is the Stepper of the process it hosts while that process is
	// parked in Steps: the engine runs it at the process's resume events in
	// place of switching in.
	step Stepper
	// awaitDone is the completion AwaitBegin hands out for the process it
	// hosts: made at the coroutine's first await and kept for its life,
	// since a process awaits one completion at a time. Ranks are spawned
	// afresh for every Run and coroutines are reused, so keeping it here
	// spares each process that awaits a closure of its own.
	awaitDone func()
}

func newCoroutine() *coroutine {
	c := &coroutine{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		defer func() {
			// A body that panicked goes on to Run's caller; one that
			// Engine.end unwound ends here.
			if r := recover(); r != nil && r != any(unwind{}) {
				panic(r)
			}
		}()
		for {
			c.p.run()
			c.p = nil
			if !yield(struct{}{}) {
				return // stopped while idle: surplus over maxIdle
			}
		}
	})
	return c
}

// maxIdle covers the paper's largest world (768 ranks), so back-to-back runs
// reuse every coroutine, and bounds what the list pins at about a thousand
// parked stacks.
const maxIdle = 1024

// idle lists the coroutines whose process has exited: one iter.Pull costs 11
// allocations, so they are kept for the next processes to start. The list is
// shared by every engine in the host process; per-engine lists keep one stack
// per rank of every cached sweep world and leak the goroutines of every
// dropped one (DESIGN.md §5.2 has the measurements).
//
//lint:ignore runisolation idle coroutines are fungible host goroutines that hold no simulation state (no Proc, body or engine); which one a process gets never reaches a result
var idle struct {
	sync.Mutex
	list []*coroutine
}

// takeCoroutine returns an idle coroutine, or a new one when none is idle.
func takeCoroutine() *coroutine {
	idle.Lock()
	defer idle.Unlock()
	n := len(idle.list)
	if n == 0 {
		return newCoroutine()
	}
	c := idle.list[n-1]
	idle.list[n-1] = nil
	idle.list = idle.list[:n-1]
	return c
}

// handIn keeps a coroutine whose process exited, or ends it when the list
// is full.
func handIn(c *coroutine) {
	idle.Lock()
	full := len(idle.list) == maxIdle
	if !full {
		idle.list = append(idle.list, c)
	}
	idle.Unlock()
	if full {
		c.stop()
	}
}
