// Command hierbench regenerates every figure and table of the HierKNEM
// paper's evaluation (IPDPS 2012) on the simulated clusters.
//
// Usage:
//
//	hierbench -exp fig3a            # one experiment
//	hierbench -exp all              # the whole evaluation
//	hierbench -exp fig7b -nodes 16  # scaled-down cluster
//	hierbench -exp all -parallel 8  # eight data points at a time
//
// Experiments: fig1, fig2, fig3a, fig3b, fig4a, fig4b, fig5a, fig5b,
// fig6a, fig6b, fig7a, fig7b, table1, table2, ablation, extensions, all.
//
// Every data point is an independent simulation, so the sweep executes them
// on a worker pool (-parallel, default GOMAXPROCS) and renders results in
// submission order: output is byte-identical at every parallelism level.
//
// The simulator reports virtual time; the paper's qualitative shapes (who
// wins, by what factor, where crossovers fall) are the reproduction target,
// not absolute microseconds. See EXPERIMENTS.md for the recorded
// paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"hierknem"
	"hierknem/internal/imb"
	"hierknem/internal/sweep"
)

type config struct {
	nodes  int
	iters  int
	aspN   int
	aspDim int // nodes used for the ASP study
}

// validate rejects counts no experiment can run on, once, before any job is
// planned: left to the jobs, each would panic separately in topology.Build.
func (c config) validate() error {
	for _, f := range []struct {
		flag  string
		nodes int
	}{{"-nodes", c.nodes}, {"-asp-nodes", c.aspDim}} {
		spec := hierknem.Stremi(f.nodes)
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("%s %d: %w", f.flag, f.nodes, err)
		}
	}
	if c.aspN < 1 {
		return fmt.Errorf("-asp-n %d must be at least 1", c.aspN)
	}
	return nil
}

func main() {
	exp := flag.String("exp", "", "experiment id (fig1..fig7b, table1, table2, all)")
	nodes := flag.Int("nodes", 32, "cluster node count (paper: 32)")
	iters := flag.Int("iters", 3, "timed iterations per data point")
	aspN := flag.Int("asp-n", 2048, "ASP matrix dimension (paper: 16384/32768)")
	aspNodes := flag.Int("asp-nodes", 8, "nodes for the ASP study (paper: 32)")
	parallel := flag.Int("parallel", 0, "concurrent data-point simulations (0 = GOMAXPROCS)")
	flag.Parse()

	cfg := config{nodes: *nodes, iters: *iters, aspN: *aspN, aspDim: *aspNodes}
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experimentIDs()
	} else if _, ok := experiments[*exp]; !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known: fig1..fig7b, table1, table2, all\n", *exp)
		os.Exit(2)
	}
	if err := runExperiments(ids, cfg, *parallel, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runExperiments plans every experiment's jobs into one sweep, executes the
// pool, then renders each experiment's output in order. Planning never
// prints; rendering only reads completed Futures — that split is what makes
// parallel output byte-identical to serial.
func runExperiments(ids []string, cfg config, parallel int, progress io.Writer) error {
	s := sweep.New("hierbench", parallel, progress)
	renders := make([]func(), 0, len(ids))
	for _, id := range ids {
		renders = append(renders, experiments[id](cfg, s))
	}
	if err := s.Run(); err != nil {
		return err
	}
	for _, render := range renders {
		render()
	}
	return nil
}

// experiments maps every -exp id to its planner: it submits the
// experiment's data-point jobs to the sweep and returns the closure that
// renders them once the sweep has run. The determinism golden test
// (determinism_test.go) iterates this same table, so a new experiment is
// automatically covered.
var experiments = map[string]func(config, *sweep.Sweep) func(){
	"fig1":       fig1,
	"fig2":       fig2,
	"fig3a":      func(c config, s *sweep.Sweep) func() { return fig3(c, s, "stremi") },
	"fig3b":      func(c config, s *sweep.Sweep) func() { return fig3(c, s, "parapluie") },
	"fig4a":      func(c config, s *sweep.Sweep) func() { return fig4(c, s, "stremi") },
	"fig4b":      func(c config, s *sweep.Sweep) func() { return fig4(c, s, "parapluie") },
	"fig5a":      func(c config, s *sweep.Sweep) func() { return fig5(c, s, "stremi") },
	"fig5b":      func(c config, s *sweep.Sweep) func() { return fig5(c, s, "parapluie") },
	"fig6a":      func(c config, s *sweep.Sweep) func() { return fig6(c, s, "bcast") },
	"fig6b":      func(c config, s *sweep.Sweep) func() { return fig6(c, s, "allgather") },
	"fig7a":      func(c config, s *sweep.Sweep) func() { return fig7(c, s, "stremi") },
	"fig7b":      func(c config, s *sweep.Sweep) func() { return fig7(c, s, "parapluie") },
	"table1":     table1,
	"table2":     table2,
	"ablation":   ablation,
	"extensions": extensions,
}

// experimentIDs returns the experiment ids in stable (sorted) order.
func experimentIDs() []string {
	ids := make([]string, 0, len(experiments))
	for id := range experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// clusterSpec resolves a cluster name to its spec.
func clusterSpec(name string, nodes int) hierknem.Spec {
	switch name {
	case "stremi":
		return hierknem.Stremi(nodes)
	case "parapluie":
		return hierknem.Parapluie(nodes)
	default:
		panic("unknown cluster " + name)
	}
}

// fullNP returns the full-population rank count of a spec.
func fullNP(spec hierknem.Spec) int { return spec.Nodes * spec.CoresPerNode() }

func header(title, setup string) {
	fmt.Printf("\n== %s ==\n   %s\n", title, setup)
}

func sizeLabel(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// printMatrix renders rows of aggregate bandwidth (MB/s) per module x size.
func printMatrix(sizes []int64, names []string, cells map[string]map[int64]imb.Result) {
	fmt.Printf("%-12s", "module")
	for _, s := range sizes {
		fmt.Printf("%12s", sizeLabel(s))
	}
	fmt.Println("   (aggregate bandwidth, MB/s)")
	for _, name := range names {
		fmt.Printf("%-12s", name)
		for _, s := range sizes {
			r := cells[name][s]
			fmt.Printf("%12.0f", r.AggBW/1e6)
		}
		fmt.Println()
	}
}

func ratioLine(names []string, sizes []int64, cells map[string]map[int64]imb.Result) {
	if len(names) < 2 {
		return
	}
	fmt.Printf("%-12s", "hk-speedup")
	for _, s := range sizes {
		hk := cells[names[0]][s].AvgTime
		worst := 0.0
		for _, n := range names[1:] {
			if t := cells[n][s].AvgTime; t > worst {
				worst = t
			}
		}
		fmt.Printf("%11.1fx", worst/hk)
	}
	fmt.Println("   (vs slowest baseline)")
}
