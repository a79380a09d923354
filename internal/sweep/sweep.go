// Package sweep executes independent simulation jobs on a bounded worker
// pool with deterministic, submission-ordered results.
//
// An experiment sweep — every figure of the paper's evaluation — is a grid
// of mutually independent DES runs: each data point builds (or reuses) a
// world, runs a collective benchmark in virtual time, and yields a
// structured result. Jobs therefore parallelize across host cores without
// touching the simulator's determinism: each job's engine is fully
// self-contained (see DESIGN.md §5.3), so the only ordering that could leak
// into output is the order results are *consumed* — and the Future API
// forces consumption to happen after Run, in whatever order the planner
// chose at submission time. Output is byte-identical at every -parallel
// level, including 1.
//
// Within one worker, consecutive jobs with the same world shape reuse the
// previous job's arena through World.Reset instead of rebuilding topology,
// fabric and process tables from scratch; a reset world replays
// bit-identically to a fresh one, so cache hits (which depend on the
// nondeterministic job-to-worker assignment) cannot perturb results.
//
// The typical driver shape:
//
//	s := sweep.New("hierbench", parallel, os.Stderr)
//	fut := sweep.Go(s, "fig3a/hierknem/8KB", func(c *sweep.Ctx) imb.Result {
//	        w := c.World(spec, "bycore", np)
//	        return imb.Bcast(w, mod, 8<<10, opts)
//	})
//	... more Go calls ...
//	if err := s.Run(); err != nil { ... }        // executes the pool
//	fmt.Println(fut.Get().AvgTime)               // render, submission order
package sweep

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"hierknem/internal/clusters"
	"hierknem/internal/mpi"
	"hierknem/internal/topology"
)

// Sweep collects jobs during a serial planning phase and executes them with
// Run. Go and Run must be called from a single goroutine; only the job
// bodies run concurrently.
type Sweep struct {
	label    string
	parallel int
	progress io.Writer

	jobs []job
	ran  bool
	mu   sync.Mutex // serializes progress writes
}

type job struct {
	id string
	fn func(*Ctx)
}

// New creates an empty sweep. parallel is the worker count; values < 1
// select GOMAXPROCS. progress, when non-nil, receives a coarse
// `label: done/total` line (carriage-return refreshed) as jobs complete —
// drivers pass os.Stderr so it never mixes with result output.
func New(label string, parallel int, progress io.Writer) *Sweep {
	if parallel < 1 {
		parallel = runtime.GOMAXPROCS(0)
	}
	return &Sweep{label: label, parallel: parallel, progress: progress}
}

// Go submits a job and returns the Future that will hold its result. id
// names the data point (experiment/module/size) and is attached to the
// panic report if the job fails. Results are readable only after Run.
func Go[T any](s *Sweep, id string, fn func(*Ctx) T) *Future[T] {
	if s.ran {
		panic("sweep: Go after Run")
	}
	f := &Future[T]{s: s}
	s.jobs = append(s.jobs, job{id: id, fn: func(c *Ctx) { f.val = fn(c) }})
	return f
}

// Future holds one job's result once Run has completed.
type Future[T any] struct {
	s   *Sweep
	val T
}

// Get returns the job's result. It panics if the sweep has not run yet:
// rendering must happen strictly after the execution phase.
func (f *Future[T]) Get() T {
	if !f.s.ran {
		panic("sweep: Future.Get before Run")
	}
	return f.val
}

// Run executes every submitted job and blocks until all complete. Each
// worker owns a private Ctx (world cache); jobs are handed out through a
// shared cursor, so the job-to-worker assignment is load-balanced and
// nondeterministic — which is safe precisely because jobs only communicate
// through their Futures. A panicking job is captured (with its id and
// stack) instead of crashing the pool; Run reports all captured panics and
// the surviving results must not be rendered.
func (s *Sweep) Run() error {
	if s.ran {
		panic("sweep: Run called twice")
	}
	s.ran = true
	n := len(s.jobs)
	if n == 0 {
		return nil
	}
	workers := min(s.parallel, n)
	var (
		cursor atomic.Int64
		done   atomic.Int64
		wg     sync.WaitGroup
	)
	panics := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := &Ctx{worlds: make(map[worldKey]*mpi.World)}
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				s.runJob(ctx, i, panics)
				s.tick(int(done.Add(1)), n)
			}
		}()
	}
	wg.Wait()
	return errors.Join(panics...)
}

// runJob executes job i on ctx, converting a panic into an error carrying
// the job id and stack. A rank body's panic surfaces here through
// World.Run, which leaves the world fit to Reset, so the worker keeps its
// cache.
func (s *Sweep) runJob(ctx *Ctx, i int, panics []error) {
	defer func() {
		if r := recover(); r != nil {
			panics[i] = fmt.Errorf("sweep: job %q panicked: %v\n%s", s.jobs[i].id, r, debug.Stack())
		}
	}()
	s.jobs[i].fn(ctx)
}

// tick refreshes the progress line after a job completes.
func (s *Sweep) tick(k, n int) {
	if s.progress == nil {
		return
	}
	s.mu.Lock()
	fmt.Fprintf(s.progress, "\r%s: %d/%d jobs", s.label, k, n)
	if k == n {
		fmt.Fprintln(s.progress)
	}
	s.mu.Unlock()
}

// worldKey identifies a world shape: same key ⇒ NewWorld would build an
// identical world, so a Reset world substitutes for a fresh one. Spec is a
// flat comparable struct, so the key is usable directly in a map.
type worldKey struct {
	spec    topology.Spec
	binding string
	np, ppn int
}

// Ctx is a worker's private job context. Its world cache is never shared:
// worlds hold engines, and engines are single-threaded by construction.
type Ctx struct {
	worlds map[worldKey]*mpi.World
}

// World returns a pristine world for spec with np ranks under the named
// binding ("bycore" or "bynode"), reusing (via World.Reset) the world a
// previous job with the same shape built on this worker. Construction
// failure panics — the pool captures it with the job id attached.
func (c *Ctx) World(spec topology.Spec, binding string, np int) *mpi.World {
	key := worldKey{spec: spec, binding: binding, np: np}
	if w := c.worlds[key]; w != nil {
		w.Reset()
		return w
	}
	w, err := clusters.NewWorld(spec, binding, np)
	if err != nil {
		panic(err)
	}
	c.worlds[key] = w
	return w
}

// WorldPPN returns a pristine world with exactly ppn ranks on each node of
// spec, cached like World.
func (c *Ctx) WorldPPN(spec topology.Spec, ppn int) *mpi.World {
	key := worldKey{spec: spec, np: ppn * spec.Nodes, ppn: ppn}
	if w := c.worlds[key]; w != nil {
		w.Reset()
		return w
	}
	w, err := clusters.NewWorldPPN(spec, ppn)
	if err != nil {
		panic(err)
	}
	c.worlds[key] = w
	return w
}
