// Command imb is an IMB-3.2-style micro-benchmark driver for the simulated
// cluster: size sweeps per collective operation, printed in the familiar
// IMB table format (plus the paper's aggregate-bandwidth column).
//
// Usage:
//
//	imb                               # all ops, default sweep, Parapluie
//	imb -op bcast -cluster stremi     # one op on the Ethernet cluster
//	imb -module tuned -np 192         # one baseline at a custom scale
//	imb -min 1024 -max 4194304        # custom size range
//	imb -parallel 8                   # eight sizes simulated at a time
//
// Every (operation, size) data point is an independent simulation; the
// sweep executes them on a worker pool (-parallel, default GOMAXPROCS) and
// prints rows in table order, so output is byte-identical at every
// parallelism level.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hierknem"
	"hierknem/internal/imb"
	"hierknem/internal/sweep"
)

func main() {
	cluster := flag.String("cluster", "parapluie", "stremi or parapluie")
	nodes := flag.Int("nodes", 8, "cluster nodes (paper: 32)")
	np := flag.Int("np", 0, "processes (default: all cores)")
	binding := flag.String("binding", "bycore", "bycore or bynode")
	moduleName := flag.String("module", "hierknem", "hierknem, tuned, hierarch, mpich2, mvapich2")
	opList := flag.String("op", "bcast,reduce,allgather,allreduce,scatter,gather", "comma-separated ops")
	minSize := flag.Int64("min", 1<<10, "smallest message size (bytes)")
	maxSize := flag.Int64("max", 4<<20, "largest message size (bytes)")
	iters := flag.Int("iters", 3, "timed iterations per size")
	parallel := flag.Int("parallel", 0, "concurrent size simulations (0 = GOMAXPROCS)")
	flag.Parse()

	var spec hierknem.Spec
	switch *cluster {
	case "stremi":
		spec = hierknem.Stremi(*nodes)
	case "parapluie":
		spec = hierknem.Parapluie(*nodes)
	default:
		fmt.Fprintf(os.Stderr, "unknown cluster %q\n", *cluster)
		os.Exit(2)
	}
	if *np == 0 {
		*np = spec.TotalCores()
	}
	if err := checkCounts(&spec, *np, *minSize, *maxSize, *iters); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *binding != "bycore" && *binding != "bynode" {
		fmt.Fprintf(os.Stderr, "unknown binding %q\n", *binding)
		os.Exit(2)
	}

	modIndex := -1
	lineup := hierknem.Lineup(&spec)
	for i, m := range lineup {
		if m.Name() == *moduleName {
			modIndex = i
		}
	}
	if modIndex < 0 {
		fmt.Fprintf(os.Stderr, "module %q not in this cluster's lineup\n", *moduleName)
		os.Exit(2)
	}

	var ops []string
	for _, op := range strings.Split(*opList, ",") {
		op = strings.TrimSpace(op)
		if !imb.KnownOp(op) {
			fmt.Fprintf(os.Stderr, "unknown op %q\n", op)
			os.Exit(2)
		}
		ops = append(ops, op)
	}

	if err := runSweep(os.Stdout, os.Stderr, spec, *binding, modIndex, ops, *np, *minSize, *maxSize, *iters, *parallel); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// checkCounts rejects a node or process count, size range or iteration count
// no job can run on, once, before the sweep is planned: left to the jobs, each
// would panic separately in topology.Build, the binding or the timing loop,
// and a size of zero never doubles past -max, so planning would not end.
func checkCounts(spec *hierknem.Spec, np int, minSize, maxSize int64, iters int) error {
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("-nodes %d: %w", spec.Nodes, err)
	}
	if np < 1 || np > spec.TotalCores() {
		return fmt.Errorf("-np %d must be between 1 and the cluster's %d cores", np, spec.TotalCores())
	}
	if minSize < 1 || maxSize < minSize {
		return fmt.Errorf("-min %d -max %d: sizes must satisfy 1 <= min <= max", minSize, maxSize)
	}
	if iters < 1 {
		return fmt.Errorf("-iters %d must be at least 1", iters)
	}
	return nil
}

// runSweep submits one job per (op, size) cell, runs the pool, and prints
// the IMB tables in sweep order.
func runSweep(out, progress io.Writer, spec hierknem.Spec, binding string, modIndex int, ops []string,
	np int, minSize, maxSize int64, iters, parallel int) error {
	modName := hierknem.Lineup(&spec)[modIndex].Name()
	opts := imb.Opts{Iterations: iters, Warmup: 1, RotateRoot: true}

	s := sweep.New("imb", parallel, progress)
	rows := map[string][]*sweep.Future[imb.Result]{}
	for _, op := range ops {
		for size := minSize; size <= maxSize; size *= 2 {
			id := fmt.Sprintf("%s/%d", op, size)
			rows[op] = append(rows[op], sweep.Go(s, id, func(c *sweep.Ctx) imb.Result {
				w := c.World(spec, binding, np)
				mod := hierknem.Lineup(&spec)[modIndex]
				r, err := imb.RunOp(w, mod, op, size, opts)
				if err != nil {
					panic(err)
				}
				return r
			}))
		}
	}
	if err := s.Run(); err != nil {
		return err
	}

	fmt.Fprintf(out, "#----------------------------------------------------------------\n")
	fmt.Fprintf(out, "# Simulated Intel MPI Benchmarks (hierknem reproduction)\n")
	fmt.Fprintf(out, "# cluster: %s (%d nodes), module: %s, %d processes, %s binding\n",
		spec.Name, spec.Nodes, modName, np, binding)
	fmt.Fprintf(out, "#----------------------------------------------------------------\n")
	for _, op := range ops {
		fmt.Fprintf(out, "\n# Benchmarking %s\n", op)
		fmt.Fprintf(out, "%12s %10s %12s %12s %12s %14s\n",
			"#bytes", "#reps", "t_min[us]", "t_max[us]", "t_avg[us]", "aggBW[MB/s]")
		for _, fut := range rows[op] {
			fmt.Fprintln(out, fut.Get().TableRow())
		}
	}
	return nil
}
