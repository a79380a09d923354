package des

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("Now() = %g, want 0", e.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var got []float64
	for _, d := range []float64{3, 1, 2, 0.5} {
		d := d
		e.At(d, func() { got = append(got, d) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1.0, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of insertion order: %v", got)
		}
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	e := New()
	var at float64
	e.After(2.5, func() { at = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 2.5 {
		t.Fatalf("event fired at %g, want 2.5", at)
	}
}

func TestCancelledTimerDoesNotFire(t *testing.T) {
	e := New()
	fired := false
	tm := e.After(1, func() { fired = true })
	tm.Cancel()
	if !tm.Stopped() {
		t.Fatal("Stopped() = false after Cancel")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

// TestSchedulingInPastPanics pins every schedule-time check of the engine:
// a time that is past, negative or non-finite panics at the call instead of
// corrupting causality.
func TestSchedulingInPastPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(e *Engine, p *Proc)
	}{
		{"At(past)", func(e *Engine, p *Proc) { e.At(1, func() {}) }},
		{"At(NaN)", func(e *Engine, p *Proc) { e.At(math.NaN(), func() {}) }},
		{"At(+Inf)", func(e *Engine, p *Proc) { e.At(math.Inf(1), func() {}) }},
		{"After(-1)", func(e *Engine, p *Proc) { e.After(-1, func() {}) }},
		{"Sleep(-1)", func(e *Engine, p *Proc) { p.Sleep(-1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			e.Spawn("p", func(p *Proc) {
				p.Sleep(5)
				defer func() {
					if recover() == nil {
						t.Errorf("%s did not panic", tc.name)
					}
				}()
				tc.call(e, p)
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestProcSleepAdvancesTime(t *testing.T) {
	e := New()
	var marks []float64
	e.Spawn("p", func(p *Proc) {
		p.Sleep(1)
		marks = append(marks, p.Now())
		p.Sleep(2)
		marks = append(marks, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(marks) != 2 || marks[0] != 1 || marks[1] != 3 {
		t.Fatalf("marks = %v, want [1 3]", marks)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := New()
		var log []string
		for _, n := range []string{"a", "b"} {
			n := n
			e.Spawn(n, func(p *Proc) {
				for i := 0; i < 3; i++ {
					log = append(log, fmt.Sprintf("%s%d@%g", n, i, p.Now()))
					p.Sleep(1)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for trial := 0; trial < 20; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestParkWake(t *testing.T) {
	e := New()
	var order []string
	var waiter *Proc
	waiter = e.Spawn("waiter", func(p *Proc) {
		order = append(order, "park")
		p.Park()
		order = append(order, fmt.Sprintf("woke@%g", p.Now()))
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(5)
		order = append(order, "wake")
		waiter.Wake()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"park", "wake", "woke@5"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestWakeBeforeParkIsLatched(t *testing.T) {
	e := New()
	var resumedAt float64 = -1
	var target *Proc
	target = e.Spawn("t", func(p *Proc) {
		p.Sleep(2) // wake arrives at t=1 while we are asleep, latched
		p.Park()   // consumes the latched wake without blocking
		resumedAt = p.Now()
	})
	e.Spawn("w", func(p *Proc) {
		p.Sleep(1)
		target.Wake()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if resumedAt != 2 {
		t.Fatalf("resumed at %g, want 2 (latched wake must not shorten sleep)", resumedAt)
	}
}

func TestWakeDoesNotInterruptSleep(t *testing.T) {
	e := New()
	var sleepEnd float64
	var target *Proc
	target = e.Spawn("t", func(p *Proc) {
		p.Sleep(10)
		sleepEnd = p.Now()
	})
	e.Spawn("w", func(p *Proc) {
		p.Sleep(1)
		target.Wake()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sleepEnd != 10 {
		t.Fatalf("sleep ended at %g, want 10", sleepEnd)
	}
}

func TestDoubleWakeCoalesces(t *testing.T) {
	e := New()
	resumes := 0
	var target *Proc
	target = e.Spawn("t", func(p *Proc) {
		p.Park()
		resumes++
		p.Sleep(100) // would catch a stray second resume as early return
		resumes++
	})
	e.Spawn("w", func(p *Proc) {
		p.Sleep(1)
		target.Wake()
		target.Wake()
		target.Wake()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if resumes != 2 {
		t.Fatalf("resumes = %d, want 2", resumes)
	}
	if e.Now() != 101 {
		t.Fatalf("final time %g, want 101", e.Now())
	}
}

// TestDeadlockDetected: a deadlock names the parked process, unwinds its
// body (its deferred calls run) and leaves an engine that can be Reset.
func TestDeadlockDetected(t *testing.T) {
	e := New()
	unwound := false
	e.Spawn("stuck", func(p *Proc) {
		defer func() { unwound = true }()
		p.Park()
	})
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Parked) != 1 || de.Parked[0] != "stuck" {
		t.Fatalf("parked = %v, want [stuck]", de.Parked)
	}
	if !unwound {
		t.Error("the parked body was not unwound")
	}
	e.Reset()
}

func TestManyProcsAllComplete(t *testing.T) {
	e := New()
	const n = 500
	count := 0
	for i := 0; i < n; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(float64(i%7) * 0.001)
			count++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("completed = %d, want %d", count, n)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := New()
	var childTime float64 = -1
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(3)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(1)
			childTime = c.Now()
		})
		p.Sleep(10)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 4 {
		t.Fatalf("child finished at %g, want 4", childTime)
	}
}

func TestZeroSleepYields(t *testing.T) {
	e := New()
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// b spawns after a but before a's zero-sleep resume event.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Property: for any set of event delays, events fire in sorted order and the
// clock ends at the maximum delay.
func TestQuickEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := New()
		var fired []float64
		var max float64
		for _, r := range raw {
			d := float64(r) / 100.0
			if d > max {
				max = d
			}
			e.At(d, func() { fired = append(fired, e.Now()) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: random sleep/park/wake workloads terminate with all procs done
// and identical event counts across two runs (determinism).
func TestQuickRandomWorkloadDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		run := func() (float64, int) {
			rng := rand.New(rand.NewSource(seed))
			e := New()
			n := 2 + rng.Intn(6)
			procs := make([]*Proc, 0, n)
			finished := 0
			for i := 0; i < n; i++ {
				steps := 1 + rng.Intn(5)
				delays := make([]float64, steps)
				for j := range delays {
					delays[j] = float64(rng.Intn(100)) / 10
				}
				procs = append(procs, e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
					for _, d := range delays {
						p.Sleep(d)
						// wake everyone; latched wakes are consumed
						// harmlessly by the next Park-free flow
						for _, q := range procs[:len(procs)] {
							_ = q
						}
					}
					finished++
				}))
			}
			if err := e.Run(); err != nil {
				return -1, -1
			}
			return e.Now(), finished
		}
		t1, f1 := run()
		t2, f2 := run()
		return t1 == t2 && f1 == f2 && f1 >= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
