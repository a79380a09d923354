package fabric

import "fmt"

// RecomputeStats counts the work the allocator performed. The headline
// number for the incremental-vs-global comparison is ResourceVisits: every
// time the allocator reads or writes one resource during progressive
// filling or re-partitioning. A refillAll Net revisits every resource on
// every sync; the incremental default only visits the component(s) an event
// touched.
//
// ResourceVisits counts, per fill, the component's resources once for the
// set-up and twice per round, and, per re-partition, one visit per path
// entry of each bundle (flows sharing a path and a rate cap form one
// bundle). FlowVisits counts, per fill, the component's bundles once for
// the set-up and once per round, plus every flow once in the write-back
// pass. Both are in these bundle units, not per-flow ones.
type RecomputeStats struct {
	Syncs          uint64 // coalesced recompute passes
	Fills          uint64 // per-component progressive-filling runs
	Rounds         uint64 // filling iterations (freeze rounds) across fills
	ResourceVisits uint64 // resource touches during fill + repartition
	FlowVisits     uint64 // bundle touches during fill rounds + flow write-backs
	Merges         uint64 // component merges (flow bridged components)
	Splits         uint64 // component splits (removal fragmented one)
	Repartitions   uint64 // union-find passes over a component that lost a bundle
	Completions    uint64 // flows that finished normally
	Components     int    // current component count (filled in by Stats)
	PeakComponents int    // high-water mark of concurrent components
}

func (s RecomputeStats) String() string {
	return fmt.Sprintf(
		"syncs=%d fills=%d rounds=%d res-visits=%d flow-visits=%d merges=%d splits=%d repartitions=%d completions=%d comps=%d peak=%d",
		s.Syncs, s.Fills, s.Rounds, s.ResourceVisits, s.FlowVisits,
		s.Merges, s.Splits, s.Repartitions, s.Completions,
		s.Components, s.PeakComponents)
}
