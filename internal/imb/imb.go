// Package imb reimplements the measurement methodology of the Intel MPI
// Benchmarks (IMB-3.2) used in the paper's evaluation: per-operation timing
// loops with a barrier before each iteration, the maximum time across ranks
// as the per-iteration result, and — for rooted operations — the root
// rotating across ranks every iteration (the detail behind the cache-reuse
// effect in Figure 6(a)).
package imb

import (
	"fmt"

	"hierknem/internal/buffer"
	"hierknem/internal/coll"
	"hierknem/internal/modules"
	"hierknem/internal/mpi"
)

// Result is one benchmark measurement.
type Result struct {
	Op         string
	Module     string
	Bytes      int64 // message size (per-rank contribution for Allgather)
	Iterations int
	AvgTime    float64 // mean of per-iteration max-across-ranks times (s)
	MinTime    float64
	MaxTime    float64
	AggBW      float64 // aggregate bandwidth, bytes/s (see AggregateBW)
}

func (r Result) String() string {
	return fmt.Sprintf("%-10s %-9s %10d B  avg %12.3f us  aggBW %10.1f MB/s",
		r.Op, r.Module, r.Bytes, r.AvgTime*1e6, r.AggBW/1e6)
}

// TableRow renders the measurement as one row of the IMB table format
// (cmd/imb): bytes, reps, min/max/avg microseconds, aggregate MB/s.
// Rendering is split from measuring so sweep drivers can run data points
// out of order and still emit rows in table order.
func (r Result) TableRow() string {
	return fmt.Sprintf("%12d %10d %12.2f %12.2f %12.2f %14.1f",
		r.Bytes, r.Iterations, r.MinTime*1e6, r.MaxTime*1e6, r.AvgTime*1e6, r.AggBW/1e6)
}

// KnownOp reports whether RunOp can dispatch op. Drivers validate op lists
// before submitting sweep jobs so an unknown name fails fast, not mid-pool.
func KnownOp(op string) bool {
	switch op {
	case "bcast", "reduce", "allgather", "allreduce", "scatter", "gather":
		return true
	}
	return false
}

// AggregateBW computes the paper's "aggregate bandwidth" metric: total bytes
// delivered cluster-wide per second of operation time.
//
//	Bcast / Reduce: (P-1) ranks each consuming/producing S bytes
//	Allgather:      P ranks each receiving (P-1) remote blocks of S bytes
func AggregateBW(op string, np int, bytes int64, avgTime float64) float64 {
	if avgTime <= 0 {
		return 0
	}
	switch op {
	case "allgather":
		return float64(np) * float64(np-1) * float64(bytes) / avgTime
	default:
		return float64(np-1) * float64(bytes) / avgTime
	}
}

// Opts configures a benchmark run.
type Opts struct {
	Iterations int  // timing iterations (default 4)
	Warmup     int  // untimed warmup iterations (default 1; -1 disables)
	RotateRoot bool // IMB default for rooted ops: root = iteration % P
	Real       bool // use real payload buffers (default phantom: size-only)
}

func (o Opts) withDefaults() Opts {
	if o.Iterations == 0 {
		o.Iterations = 4
	}
	if o.Warmup == 0 {
		o.Warmup = 1
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	return o
}

func (o Opts) newBuf(n int64) *buffer.Buffer {
	if o.Real {
		return buffer.NewReal(make([]byte, n))
	}
	return buffer.NewPhantom(n)
}

// timeOp runs the op loop and reduces per-iteration times (max over ranks).
// It returns World.Run's error, such as a *mpi.StallError, as it is.
func timeOp(w *mpi.World, opts Opts, body func(p *mpi.Proc, c *mpi.Comm, iter int)) (avg, min, max float64, iters int, err error) {
	opts = opts.withDefaults()
	total := opts.Warmup + opts.Iterations
	perIter := make([]float64, total) // max across ranks
	err = w.Run(func(p *mpi.Proc) {
		c := w.WorldComm()
		for it := 0; it < total; it++ {
			c.Barrier(p)
			t0 := p.Now()
			body(p, c, it)
			el := p.Now() - t0
			if el > perIter[it] {
				perIter[it] = el
			}
		}
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	timed := perIter[opts.Warmup:]
	min, max = timed[0], timed[0]
	var sum float64
	for _, t := range timed {
		sum += t
		if t < min {
			min = t
		}
		if t > max {
			max = t
		}
	}
	return sum / float64(len(timed)), min, max, len(timed), nil
}

// RunOp benchmarks the named collective — one sweep data point — on w:
// bytes is the message size, or the per-rank block for allgather, scatter
// and gather. It reports an error for an unknown operation, a negative size
// or a negative iteration count, and wraps the error of a run that fails,
// such as a *mpi.StallError when the module deadlocks. Reductions sum
// float64s.
func RunOp(w *mpi.World, mod modules.Module, op string, bytes int64, opts Opts) (Result, error) {
	switch {
	case !KnownOp(op):
		return Result{}, fmt.Errorf("imb: unknown op %q", op)
	case bytes < 0:
		return Result{}, fmt.Errorf("imb: %s size %d is negative", op, bytes)
	case opts.Iterations < 0:
		return Result{}, fmt.Errorf("imb: %d iterations is negative", opts.Iterations)
	}
	np := w.Size()
	sLen, rLen := bytes, bytes
	switch op {
	case "allgather", "gather":
		rLen = bytes * int64(np)
	case "scatter":
		sLen = bytes * int64(np)
	}
	// Buffers are minted send before receive, rank by rank: the L3
	// residency model keys on buffer identity, so the order is part of
	// the timing. Bcast has one buffer per rank.
	sbufs := make([]*buffer.Buffer, np)
	var rbufs []*buffer.Buffer
	if op != "bcast" {
		rbufs = make([]*buffer.Buffer, np)
	}
	for i := range sbufs {
		sbufs[i] = opts.newBuf(sLen)
		if rbufs != nil {
			rbufs[i] = opts.newBuf(rLen)
		}
	}
	a := coll.ReduceArgs{Op: buffer.OpSum, Dtype: buffer.Float64}
	avg, min, max, iters, err := timeOp(w, opts, func(p *mpi.Proc, c *mpi.Comm, it int) {
		root := 0
		if opts.RotateRoot {
			root = it % np
		}
		me := c.Rank(p)
		switch op {
		case "bcast":
			mod.Bcast(p, c, sbufs[me], root)
		case "reduce":
			mod.Reduce(p, c, a, sbufs[me], rbufs[me], root)
		case "allgather":
			mod.Allgather(p, c, sbufs[me], rbufs[me])
		case "allreduce":
			mod.Allreduce(p, c, a, sbufs[me], rbufs[me])
		case "scatter":
			mod.Scatter(p, c, sbufs[me], rbufs[me], root)
		case "gather":
			mod.Gather(p, c, sbufs[me], rbufs[me], root)
		}
	})
	if err != nil {
		return Result{}, fmt.Errorf("imb: %s benchmark run failed: %w", op, err)
	}
	return Result{
		Op: op, Module: mod.Name(), Bytes: bytes, Iterations: iters,
		AvgTime: avg, MinTime: min, MaxTime: max,
		AggBW: AggregateBW(op, np, bytes, avg),
	}, nil
}

// must returns r, panicking on err.
func must(r Result, err error) Result {
	if err != nil {
		panic(err)
	}
	return r
}

// Bcast benchmarks MPI_Bcast; it panics where RunOp reports an error.
func Bcast(w *mpi.World, mod modules.Module, bytes int64, opts Opts) Result {
	return must(RunOp(w, mod, "bcast", bytes, opts))
}

// Reduce benchmarks MPI_Reduce; it panics where RunOp reports an error.
func Reduce(w *mpi.World, mod modules.Module, bytes int64, opts Opts) Result {
	return must(RunOp(w, mod, "reduce", bytes, opts))
}

// Allgather benchmarks MPI_Allgather; bytes is the per-rank contribution.
// It panics where RunOp reports an error.
func Allgather(w *mpi.World, mod modules.Module, bytes int64, opts Opts) Result {
	return must(RunOp(w, mod, "allgather", bytes, opts))
}
