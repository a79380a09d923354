// Package clusters provides calibrated models of the two Grid'5000 clusters
// in the paper's evaluation, plus the per-cluster module line-ups
// (libraries × quirks) used in each figure.
//
// Both clusters have 32 nodes of two AMD Opteron 6164 HE twelve-core CPUs;
// each socket is a NUMA domain with a 12 MB L3. Stremi is interconnected
// with Gigabit Ethernet, Parapluie with InfiniBand 20G. Hardware numbers are
// calibrated to that era: ~3 GB/s single-core copy bandwidth, ~10 GB/s
// per-socket memory bandwidth, 125 MB/s / ~50 µs GigE, 1.9 GB/s / ~5 µs IB.
package clusters

import (
	"fmt"

	"hierknem/internal/core"
	"hierknem/internal/modules"
	"hierknem/internal/mpi"
	"hierknem/internal/topology"
)

// Stremi returns the Ethernet cluster spec with the given node count
// (the paper uses 32; smaller values scale experiments down).
func Stremi(nodes int) topology.Spec {
	return topology.Spec{
		Name:              "stremi",
		Nodes:             nodes,
		SocketsPerNode:    2,
		CoresPerSocket:    12,
		MemBandwidth:      10e9,
		CoreCopyBandwidth: 3e9,
		L3Bandwidth:       6e9,
		L3TotalBandwidth:  30e9,
		L3Size:            12 << 20,
		ShmLatency:        1e-6,
		NetBandwidth:      125e6,
		NetLatency:        50e-6,
		NetFullDuplex:     true,
		EagerThreshold:    4096,
	}
}

// Parapluie returns the InfiniBand 20G cluster spec.
func Parapluie(nodes int) topology.Spec {
	s := Stremi(nodes)
	s.Name = "parapluie"
	s.NetBandwidth = 1.9e9
	s.NetLatency = 5e-6
	return s
}

// OMPIReducePerHopIB is the per-send CPU penalty of Open MPI's reduction
// path on InfiniBand, calibrated from the paper's profile (515 µs vs 281 µs
// for a 64 KB reduce over 32 flat ranks, section IV-E).
const OMPIReducePerHopIB = 45e-6

// Ethernet reports whether a spec is the GigE personality (selects quirks
// and pipeline tables).
func Ethernet(spec *topology.Spec) bool { return spec.NetBandwidth < 500e6 }

// Config returns the software-stack configuration of a cluster: the
// per-message rendezvous protocol cost is calibrated so the pipeline-size
// sweep reproduces the paper's Figure 1 U-curve (64 KB optimum on
// InfiniBand; small segments latency-dominated).
func Config(spec *topology.Spec) mpi.Config {
	if Ethernet(spec) {
		// TCP stacks pay more per message, but the slow wire dominates:
		// small pipeline segments stay attractive (Table I's 16 KB).
		return mpi.Config{RendezvousCPU: 15e-6}
	}
	return mpi.Config{RendezvousCPU: 12e-6}
}

// HierKNEM builds the paper's module for the given cluster, applying
// Table I's pipeline sizes and the stack quirks of its Open MPI host.
func HierKNEM(spec *topology.Spec) *core.Module {
	opt := core.Options{}
	if Ethernet(spec) {
		pl := core.PipelineEthernet()
		opt.BcastPipeline, opt.ReducePipeline = pl.Bcast, pl.Reduce
	} else {
		pl := core.PipelineIB()
		opt.BcastPipeline, opt.ReducePipeline = pl.Bcast, pl.Reduce
		opt.ReducePerHop = OMPIReducePerHopIB
	}
	return core.New(opt)
}

// Lineup returns the modules compared on a cluster, in the order the
// paper's figures plot them: HierKNEM, Tuned, Hierarch, then MPICH2
// (Ethernet) or MVAPICH2 (InfiniBand).
func Lineup(spec *topology.Spec) []modules.Module {
	if Ethernet(spec) {
		q := modules.Quirks{SerializedRing: true}
		return []modules.Module{
			HierKNEM(spec),
			modules.Tuned(q),
			modules.Hierarch(q),
			modules.MPICH2(q),
		}
	}
	q := modules.Quirks{ReducePerHop: OMPIReducePerHopIB}
	return []modules.Module{
		HierKNEM(spec),
		modules.Tuned(q),
		modules.Hierarch(q),
		modules.MVAPICH2(),
	}
}

// NewWorld builds a machine + world for a spec with np ranks under the named
// binding ("bycore" or "bynode").
func NewWorld(spec topology.Spec, binding string, np int) (*mpi.World, error) {
	m, err := topology.Build(spec)
	if err != nil {
		return nil, err
	}
	var b *topology.Binding
	switch binding {
	case "bycore":
		b, err = topology.ByCore(m, np)
	case "bynode":
		b, err = topology.ByNode(m, np)
	default:
		return nil, fmt.Errorf("clusters: unknown binding %q", binding)
	}
	if err != nil {
		return nil, err
	}
	return mpi.NewWorld(m, b, Config(&spec))
}

// NewWorldPPN builds a machine + world for a spec with exactly ppn ranks on
// each node.
func NewWorldPPN(spec topology.Spec, ppn int) (*mpi.World, error) {
	m, err := topology.Build(spec)
	if err != nil {
		return nil, err
	}
	b, err := topology.ByCorePPN(m, ppn*spec.Nodes, ppn)
	if err != nil {
		return nil, err
	}
	return mpi.NewWorld(m, b, Config(&spec))
}
