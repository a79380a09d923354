// Package core implements HierKNEM, the paper's contribution: an adaptive,
// kernel-assisted, topology-aware hierarchical collective framework.
//
// Three design elements distinguish it from the classic two-level modules in
// internal/modules:
//
//  1. Offload — intra-node data movement is performed by non-leader
//     processes through one-sided KNEM copies, so leaders spend no cycles on
//     local distribution;
//  2. Tight pipeline integration — the intra-node fan-out of segment i
//     overlaps the inter-node forwarding of segment i+1 (Broadcast), and the
//     intra-node reduction of segment i+1 overlaps the inter-node reduction
//     of segment i (Reduce, a double-leader scheme);
//  3. Topology awareness — leaders, rings and communicator layouts are
//     derived from the physical process-core binding, so performance is
//     stable under by-core, by-node or irregular placements.
//
// The algorithms adapt to degenerate layouts exactly as the paper describes:
// with all ranks on one node the Broadcast collapses into the KNEM-collective
// linear algorithm, and with one rank per node it morphs into the pure
// inter-node pipelined tree.
package core

import (
	"hierknem/internal/hier"
	"hierknem/internal/mpi"
)

// PipelineFunc maps a total message size to the pipeline (segment) size the
// operation should use.
type PipelineFunc func(msgBytes int64) int64

// Options configure the HierKNEM module.
type Options struct {
	// BcastPipeline and ReducePipeline give the segment size per message
	// size; nil selects the InfiniBand defaults from Table I.
	BcastPipeline  PipelineFunc
	ReducePipeline PipelineFunc

	// ForceAllgather overrides the automatic Allgather selection (the
	// Figure 2 study); the zero value, AllgatherAuto, selects by
	// processes per node.
	ForceAllgather AllgatherAlg

	// RankOrderedRing is an ablation switch: build the Allgather ring in
	// MPI rank order instead of physical order, disabling the
	// topology-awareness this module exists for.
	RankOrderedRing bool

	// TopoDetectCost is the per-call CPU cost of constructing the
	// internal topology map (the overhead section IV-G quantifies; the
	// paper lists caching it as future work). Default 2 µs.
	TopoDetectCost float64

	// CacheTopology implements that future work: build the topological
	// map (and the hierarchy communicators) once per communicator at
	// first use and reuse it afterwards, eliminating the per-call
	// detection overhead measured in section IV-G.
	CacheTopology bool

	// ReducePerHop is inherited from the Open MPI stack HierKNEM is built
	// on: its inter-node reduction pays the same per-send penalty as
	// Tuned on InfiniBand (section IV-E explains HierKNEM cannot beat
	// MVAPICH2 there for this reason).
	ReducePerHop float64
}

func (o Options) withDefaults() Options {
	if o.BcastPipeline == nil {
		o.BcastPipeline = PipelineIB().Bcast
	}
	if o.ReducePipeline == nil {
		o.ReducePipeline = PipelineIB().Reduce
	}
	if o.TopoDetectCost == 0 {
		o.TopoDetectCost = 2e-6
	}
	return o
}

// Pipeline is a Table-I row: the tuned pipeline sizes of one cluster.
type Pipeline struct {
	Bcast  PipelineFunc
	Reduce PipelineFunc
}

// PipelineIB returns Table I's Parapluie (InfiniBand 20G) column: 64 KB for
// both operations at every size.
func PipelineIB() Pipeline {
	return Pipeline{
		Bcast:  func(int64) int64 { return 64 << 10 },
		Reduce: func(int64) int64 { return 64 << 10 },
	}
}

// PipelineEthernet returns Table I's Stremi (Gigabit Ethernet) column:
// Broadcast 16 KB below 512 KB and 32 KB above; Reduce 64 KB below 16 MB and
// 1 MB above.
func PipelineEthernet() Pipeline {
	return Pipeline{
		Bcast: func(n int64) int64 {
			if n < 512<<10 {
				return 16 << 10
			}
			return 32 << 10
		},
		Reduce: func(n int64) int64 {
			if n < 16<<20 {
				return 64 << 10
			}
			return 1 << 20
		},
	}
}

// FixedPipeline returns a constant segment size (used by the Figure 1 sweep).
func FixedPipeline(seg int64) PipelineFunc {
	return func(int64) int64 { return seg }
}

// Module is the HierKNEM collective component. It satisfies
// modules.Module.
type Module struct {
	Opt Options
}

// New creates a HierKNEM module.
func New(opt Options) *Module { return &Module{Opt: opt.withDefaults()} }

// hierCache is what Options.CacheTopology keeps in a communicator's
// attribute slot: the hierarchies built on it so far, by [root][comm rank];
// an entry is built once its Comm is set. The communicator owns it, so it
// is collected with the communicator (a World.Reset mints a fresh world
// communicator every time).
type hierCache [][]hier.Hierarchy

// hierarchy builds (or, with CacheTopology, reuses) the two-level structure
// for p on c, charging the topology-detection cost on construction only.
// Uncached, it builds into *scratch — a value on the caller's stack — and
// returns scratch; cached, it returns the communicator's entry, so
// Hierarchy.NewComm keeps its split across calls.
func (m *Module) hierarchy(p *mpi.Proc, c *mpi.Comm, root int, scratch *hier.Hierarchy) *hier.Hierarchy {
	if !m.Opt.CacheTopology {
		p.Compute(m.Opt.TopoDetectCost)
		*scratch = hier.Build(p, c, root)
		return scratch
	}
	cache, _ := c.Attr().(hierCache)
	if cache == nil {
		cache = make(hierCache, c.Size())
		c.SetAttr(cache)
	}
	if cache[root] == nil {
		cache[root] = make([]hier.Hierarchy, c.Size())
	}
	h := &cache[root][c.Rank(p)]
	if h.Comm == nil {
		p.Compute(m.Opt.TopoDetectCost)
		*h = hier.Build(p, c, root)
	}
	return h
}

func (m *Module) Name() string { return "hierknem" }

// hkTag is the base of HierKNEM's tag space.
const hkTag = 1 << 21

// segCount returns the number of pipeline segments for a message.
func segCount(total, seg int64) int64 {
	if total == 0 {
		return 1
	}
	n := mpi.CeilDiv(total, seg)
	if n == 0 {
		n = 1
	}
	return n
}
