package des

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// The tests in this file pin the coroutine process switch: what a Spawn
// costs once the idle list is warm, what the idle list may and may not keep
// alive, and that engines on concurrent goroutines can share it.

// idleLen returns the length of the process-wide idle list.
func idleLen() int {
	idle.Lock()
	defer idle.Unlock()
	return len(idle.list)
}

// ringBody makes every process hand the baton to the others a few times, so
// each one is switched into and yields more than once.
func ringBody(p *Proc) {
	for i := 0; i < 3; i++ {
		p.Sleep(1)
	}
}

// awaitBody awaits a few completions, as a rank awaits its copies.
func awaitBody(p *Proc) {
	for i := 0; i < 3; i++ {
		p.eng.After(1, AwaitBegin(p))
		AwaitEnd(p)
	}
}

func TestSpawnAllocsWarmPool(t *testing.T) {
	const n = 768
	for _, body := range []struct {
		name string
		fn   func(*Proc)
	}{{"ring", ringBody}, {"await", awaitBody}} {
		e := New()
		cycle := func() {
			e.Reset()
			for i := 0; i < n; i++ {
				e.Spawn("p", body.fn)
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
		// AllocsPerRun's warm-up call fills the idle list, the event free
		// list, the process table and the coroutines' await closures; the
		// measured call is the second cycle. What remains per process is
		// the Proc, whether it awaits or not.
		if per := testing.AllocsPerRun(1, cycle) / n; per > 1.5 {
			t.Errorf("%s: warm Spawn/Run cycle costs %.2f mallocs per process, want <= 1.5", body.name, per)
		}
	}
}

// TestIdleCoroutinesPinNoEngine builds, runs and drops engines that each own
// a few MB: neither the heap nor the goroutine count may grow with the
// number of engines dropped, and nothing on the idle list may reference a
// process.
func TestIdleCoroutinesPinNoEngine(t *testing.T) {
	base := runtime.NumGoroutine() - idleLen()
	heapAfter := func() uint64 {
		e := New()
		ballast := make([]byte, 4<<20)
		for i := 0; i < 48; i++ {
			e.Spawn("p", func(p *Proc) {
				ballast[p.ID()]++
				ringBody(p)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(e) // the heap holds exactly one engine when measured
		return ms.HeapAlloc
	}
	var ref uint64
	for rep := 1; rep <= 30; rep++ {
		h := heapAfter()
		if rep == 3 {
			ref = h
		}
		if rep > 3 && (h > ref+ref/10 || h < ref-ref/10) {
			t.Fatalf("rep %d: HeapAlloc %d, rep 3 had %d: dropped engines are not collected", rep, h, ref)
		}
	}
	if g := runtime.NumGoroutine(); g > base+maxIdle {
		t.Fatalf("%d goroutines after 30 engines, want <= %d", g, base+maxIdle)
	}
	idle.Lock()
	defer idle.Unlock()
	for i, c := range idle.list {
		if c.p != nil {
			t.Fatalf("idle coroutine %d still references process %s", i, c.p.name)
		}
	}
}

func TestPoolCapSurplusEnds(t *testing.T) {
	base := runtime.NumGoroutine() - idleLen()
	const n = maxIdle + 200
	e := New()
	done := 0
	for i := 0; i < n; i++ {
		e.Spawn("p", func(p *Proc) {
			ringBody(p) // every process is mid-body before the first one exits
			done++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("%d of %d processes completed", done, n)
	}
	if l := idleLen(); l != maxIdle {
		t.Fatalf("idle list holds %d coroutines, want the cap %d", l, maxIdle)
	}
	if g := runtime.NumGoroutine(); g > base+maxIdle {
		t.Fatalf("%d goroutines after the run, want <= %d: surplus coroutines did not end", g, base+maxIdle)
	}
}

// TestSpawnFromCallbackDuringExit: a process that returned still dispatches
// on its coroutine, and a callback it dispatches may spawn. The new process
// must not be given the coroutine that is still running that dispatch loop.
func TestSpawnFromCallbackDuringExit(t *testing.T) {
	e := New()
	childAt := -1.0
	e.Spawn("parent", func(p *Proc) {
		e.After(1, func() {
			e.Spawn("child", func(c *Proc) {
				c.Sleep(1)
				childAt = c.Now()
			})
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 2 {
		t.Fatalf("child finished at %g, want 2", childAt)
	}
}

// TestConcurrentEnginesSharePool runs eight engines on eight goroutines,
// all taking from and handing in to the one idle list. Under -race this is
// the probe for a coroutine reaching a second engine while the first is
// still switching out of it.
func TestConcurrentEnginesSharePool(t *testing.T) {
	run := func() string {
		e := New()
		var log []byte
		procs := make([]*Proc, 32)
		for i := range procs {
			procs[i] = e.Spawn("p", func(p *Proc) {
				p.Sleep(float64(p.ID()%5) * 0.5)
				procs[(p.ID()+1)%len(procs)].Wake()
				p.Park()
				log = fmt.Appendf(log, "%d@%g ", p.ID(), p.Now())
			})
		}
		if err := e.Run(); err != nil {
			return err.Error()
		}
		return string(log)
	}
	want := run()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				if got := run(); got != want {
					t.Errorf("concurrent engine logged %q, want %q", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
