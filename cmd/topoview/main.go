// Command topoview inspects the simulated hardware and the process-core
// bindings HierKNEM's topology-aware algorithms are built on: per-node rank
// groups, leader selection, the physical-order logical ring and its
// cross-node edge count under each binding.
//
// Usage:
//
//	topoview -nodes 4 -np 24 -binding bynode
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"hierknem"
	"hierknem/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it prints the report to stdout and returns the
// exit status, 2 with one line on stderr for input it cannot use.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topoview", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodes := fs.Int("nodes", 4, "cluster nodes")
	np := fs.Int("np", 0, "processes (default: all cores)")
	binding := fs.String("binding", "bycore", "bycore or bynode")
	cluster := fs.String("cluster", "parapluie", "stremi or parapluie")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "topoview: %v\n", err)
		return 2
	}

	var spec hierknem.Spec
	switch *cluster {
	case "stremi":
		spec = hierknem.Stremi(*nodes)
	case "parapluie":
		spec = hierknem.Parapluie(*nodes)
	default:
		return fail(fmt.Errorf("unknown cluster %q (want stremi or parapluie)", *cluster))
	}
	m, err := topology.Build(spec)
	if err != nil {
		return fail(err)
	}
	switch {
	case *np < 0:
		return fail(fmt.Errorf("-np %d: want a positive process count", *np))
	case *np == 0:
		*np = spec.TotalCores()
	}
	var b *topology.Binding
	switch *binding {
	case "bycore":
		b, err = topology.ByCore(m, *np)
	case "bynode":
		b, err = topology.ByNode(m, *np)
	default:
		return fail(fmt.Errorf("unknown binding %q (want bycore or bynode)", *binding))
	}
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "cluster %s: %d nodes x %d sockets x %d cores = %d cores\n",
		spec.Name, spec.Nodes, spec.SocketsPerNode, spec.CoresPerSocket, spec.TotalCores())
	fmt.Fprintf(stdout, "network: %.0f MB/s, %.0f us latency; mem %.1f GB/s per socket, core copy %.1f GB/s\n",
		spec.NetBandwidth/1e6, spec.NetLatency*1e6, spec.MemBandwidth/1e9, spec.CoreCopyBandwidth/1e9)
	fmt.Fprintf(stdout, "binding %s: %d processes\n\n", b.Name, b.NP())

	groups := b.RanksByNode(m)
	leaders := b.Leaders(m)
	fmt.Fprintln(stdout, "per-node rank groups (leader first):")
	for node, ranks := range groups {
		if len(ranks) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "  node %2d: %v\n", node, ranks)
	}
	fmt.Fprintf(stdout, "\nleaders: %v\n", leaders)

	rankOrder := make([]int, b.NP())
	for i := range rankOrder {
		rankOrder[i] = i
	}
	phys := b.PhysicalOrder(m)
	fmt.Fprintf(stdout, "\nlogical rings (ring edges crossing nodes):\n")
	fmt.Fprintf(stdout, "  rank-ordered ring:     %3d cross-node edges\n", topology.CrossNodeEdges(m, b, rankOrder))
	fmt.Fprintf(stdout, "  physical-order ring:   %3d cross-node edges (HierKNEM)\n", topology.CrossNodeEdges(m, b, phys))
	fmt.Fprintf(stdout, "  physical order: %v\n", phys)
	return 0
}
