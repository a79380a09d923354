// Package hierknem is a simulation-backed reproduction of "HierKNEM: An
// Adaptive Framework for Kernel-Assisted and Topology-Aware Collective
// Communications on Many-core Clusters" (Ma, Bosilca, Bouteiller, Dongarra —
// IPDPS 2012).
//
// It provides:
//
//   - a deterministic virtual-time simulator of many-core clusters (cores,
//     NUMA sockets, L3 caches, NICs, networks) with max-min fair bandwidth
//     sharing;
//   - a simulated MPI runtime (communicators, non-blocking p2p with eager
//     and rendezvous protocols, barriers) and a KNEM kernel-module
//     simulator (cookie-based one-sided intra-node copies);
//   - the HierKNEM collective algorithms (the paper's Algorithms 1 and 2
//     plus the dual Allgather) and the baseline "personalities" they are
//     evaluated against: Open MPI Tuned, Open MPI Hierarch, MPICH2 and
//     MVAPICH2;
//   - an IMB-style measurement harness and the ASP (parallel
//     Floyd–Warshall) application used in the paper's evaluation.
//
// This package is a facade over the implementation packages; see
// cmd/hierbench for the drivers that regenerate every figure and table of
// the paper, and the package examples (Example_quickstart, Example_adaptive,
// Example_placement, Example_scaling, Example_asp) for runnable
// walkthroughs whose output go test checks.
package hierknem

import (
	"hierknem/internal/asp"
	"hierknem/internal/clusters"
	"hierknem/internal/coll"
	"hierknem/internal/core"
	"hierknem/internal/imb"
	"hierknem/internal/modules"
	"hierknem/internal/mpi"
	"hierknem/internal/topology"
)

// Core simulation types.
type (
	// Spec declares a cluster's hardware parameters.
	Spec = topology.Spec
	// Machine is a built cluster.
	Machine = topology.Machine
	// Binding maps MPI ranks to cores.
	Binding = topology.Binding
	// World is a simulated MPI job.
	World = mpi.World
	// Proc is one simulated MPI process.
	Proc = mpi.Proc
	// Comm is a communicator.
	Comm = mpi.Comm
	// Module is a collective component (HierKNEM or a baseline).
	Module = modules.Module
	// Options configure the HierKNEM module.
	Options = core.Options
	// Quirks model measured software artifacts of baseline stacks.
	Quirks = modules.Quirks
	// BenchOpts configure an IMB-style measurement.
	BenchOpts = imb.Opts
	// BenchResult is one IMB-style measurement.
	BenchResult = imb.Result
	// ASPResult is an ASP application run's timing breakdown.
	ASPResult = asp.Result
	// ReduceArgs bundle the reduction operator and datatype.
	ReduceArgs = coll.ReduceArgs
)

// Cluster presets from the paper's evaluation (Grid'5000).
var (
	// Stremi returns the 24-core Gigabit-Ethernet cluster spec.
	Stremi = clusters.Stremi
	// Parapluie returns the 24-core InfiniBand-20G cluster spec.
	Parapluie = clusters.Parapluie
)

// Build constructs a machine from a spec.
func Build(spec Spec) (*Machine, error) { return topology.Build(spec) }

// NewWorld builds a simulated MPI job on spec with np ranks bound by
// binding ("bycore" or "bynode").
func NewWorld(spec Spec, binding string, np int) (*World, error) {
	return clusters.NewWorld(spec, binding, np)
}

// NewWorldPPN builds a job with exactly ppn ranks on each node.
func NewWorldPPN(spec Spec, ppn int) (*World, error) {
	return clusters.NewWorldPPN(spec, ppn)
}

// New creates the HierKNEM collective module.
func New(opt Options) *core.Module { return core.New(opt) }

// ForCluster creates the HierKNEM module with the cluster's tuned pipeline
// sizes (Table I) and stack quirks.
func ForCluster(spec *Spec) *core.Module { return clusters.HierKNEM(spec) }

// Baseline module constructors (see internal/modules for the quirk model).
var (
	Tuned    = modules.Tuned
	Hierarch = modules.Hierarch
	MPICH2   = modules.MPICH2
	MVAPICH2 = modules.MVAPICH2
)

// Lineup returns the modules a cluster's figures compare, HierKNEM first.
func Lineup(spec *Spec) []Module { return clusters.Lineup(spec) }

// IMB-style benchmark runners.
var (
	BenchBcast     = imb.Bcast
	BenchReduce    = imb.Reduce
	BenchAllgather = imb.Allgather
)

// RunASP executes the ASP timing skeleton (phantom payloads) for n vertices.
// It panics with the error where asp.Run reports one (n < 1, a negative or
// non-finite cellCost).
func RunASP(w *World, mod Module, n int, cellCost float64) ASPResult {
	return must(asp.Run(w, mod, n, cellCost))
}

// SolveASP runs ASP with real data and returns the solved distance matrix.
// It panics with the error where asp.Solve reports one (an empty or
// non-square dist).
func SolveASP(w *World, mod Module, dist [][]float64) [][]float64 {
	return must(asp.Solve(w, mod, dist))
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
