// Command asp runs the ASP application study (the paper's Table II): the
// parallel Floyd–Warshall all-pairs-shortest-path solver whose per-iteration
// row broadcast dominates communication time.
//
// Usage:
//
//	asp                          # default: N=2048 on 8 Stremi nodes
//	asp -n 4096 -nodes 16        # bigger problem
//	asp -module hierknem -verify # verify against the sequential solver
//	asp -verify -seed 7          # replay verification with another instance
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"hierknem"
	"hierknem/internal/asp"
	"hierknem/internal/trace"
)

func main() {
	n := flag.Int("n", 2048, "matrix dimension (paper: 16384 / 32768)")
	nodes := flag.Int("nodes", 8, "Stremi nodes (paper: 32)")
	cluster := flag.String("cluster", "stremi", "cluster: stremi or parapluie")
	moduleName := flag.String("module", "", "run a single module (default: the full lineup)")
	verify := flag.Bool("verify", false, "run a small real-data instance and check against the sequential solver")
	seed := flag.Int64("seed", 42, "RNG seed for the -verify instance; a given seed always generates the same graph")
	showTrace := flag.Bool("trace", false, "print the busiest simulated resources after each run")
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
	if err := checkCounts(&spec, *n); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	np := spec.Nodes * spec.CoresPerNode()

	mods := hierknem.Lineup(&spec)
	if *moduleName != "" {
		var filtered []hierknem.Module
		for _, m := range mods {
			if m.Name() == *moduleName {
				filtered = append(filtered, m)
			}
		}
		if len(filtered) == 0 {
			fmt.Fprintf(os.Stderr, "unknown module %q\n", *moduleName)
			os.Exit(2)
		}
		mods = filtered
	}

	if *verify {
		runVerify(spec, np, mods[0], *seed)
		return
	}

	fmt.Printf("ASP all-pairs shortest path — %s, %d nodes, %d processes, N=%d\n",
		spec.Name, spec.Nodes, np, *n)
	fmt.Printf("%-12s%12s%12s%10s\n", "module", "bcast(s)", "total(s)", "comm%")
	for _, mod := range mods {
		w, err := hierknem.NewWorld(spec, "bycore", np)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res := hierknem.RunASP(w, mod, *n, 0)
		fmt.Printf("%-12s%12.2f%12.2f%9.1f%%\n",
			mod.Name(), res.Bcast, res.Total, 100*res.Bcast/res.Total)
		if *showTrace {
			fmt.Println(trace.Report(w.Machine, 6))
		}
	}
}

// checkCounts rejects a node count or matrix dimension no run can use, before
// anything is printed: left to the run, -nodes 0 fails after the table header
// and -n below 1 panics in a rank or prints NaN rows.
func checkCounts(spec *hierknem.Spec, n int) error {
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("-nodes %d: %w", spec.Nodes, err)
	}
	if n < 1 {
		return fmt.Errorf("-n %d must be at least 1", n)
	}
	return nil
}

// randomGraph generates the -verify instance: a reproducible random weighted
// digraph. A given (n, seed) pair always yields the same matrix, which is
// what makes `asp -verify -seed N` replayable across machines and what the
// replay test (replay_test.go) pins down.
func randomGraph(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			switch {
			case i == j:
				d[i][j] = 0
			case rng.Float64() < 0.3:
				d[i][j] = float64(1 + rng.Intn(50))
			default:
				d[i][j] = asp.Inf
			}
		}
	}
	return d
}

func runVerify(spec hierknem.Spec, np int, mod hierknem.Module, seed int64) {
	const n = 64
	d := randomGraph(n, seed)
	ref := make([][]float64, n)
	for i := range ref {
		ref[i] = append([]float64(nil), d[i]...)
	}
	asp.Sequential(ref)

	w, err := hierknem.NewWorld(spec, "bycore", np)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	got := hierknem.SolveASP(w, mod, d)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got[i][j] != ref[i][j] {
				fmt.Printf("MISMATCH at (%d,%d): %v != %v\n", i, j, got[i][j], ref[i][j])
				os.Exit(1)
			}
		}
	}
	fmt.Printf("verified: %s solves a %dx%d instance (seed %d) identically to the sequential Floyd-Warshall\n",
		mod.Name(), n, n, seed)
}
