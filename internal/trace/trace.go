// Package trace reports on the simulated hardware after a run: which
// resources moved how many bytes, how saturated they were, and where the
// hot spots sit. It is how the repository's experiments diagnose effects
// like the leader memory-bus bottleneck of the paper's Figure 2 or the NIC
// serialization behind Figure 3's flat-algorithm collapse.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"hierknem/internal/topology"
)

// ResourceStat is one resource's activity over [0, now].
type ResourceStat struct {
	Name        string
	Capacity    float64 // bytes/s
	BytesServed float64
	Utilization float64 // BytesServed / (Capacity * elapsed)
}

// Snapshot captures the per-resource statistics of a machine, sorted by
// bytes served (descending, ties by name for determinism).
func Snapshot(m *topology.Machine) []ResourceStat {
	elapsed := m.Eng.Now()
	rs := m.Fab.Resources()
	out := make([]ResourceStat, 0, len(rs))
	for _, r := range rs {
		out = append(out, ResourceStat{
			Name:        r.Name,
			Capacity:    r.Capacity,
			BytesServed: r.BytesServed,
			Utilization: r.Utilization(elapsed),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].BytesServed != out[j].BytesServed {
			return out[i].BytesServed > out[j].BytesServed
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Report renders the top-n busiest resources as an aligned table.
func Report(m *topology.Machine, top int) string {
	stats := Snapshot(m)
	if top > 0 && top < len(stats) {
		stats = stats[:top]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %14s %14s %8s\n", "resource", "served (MB)", "cap (MB/s)", "util")
	for _, s := range stats {
		fmt.Fprintf(&b, "%-20s %14.1f %14.0f %7.1f%%\n",
			s.Name, s.BytesServed/1e6, s.Capacity/1e6, 100*s.Utilization)
	}
	return b.String()
}

// Overlap reports the intra/inter overlap statistics of a run: how much
// virtual time each traffic class was active and how much of the intra-node
// copy time was hidden under inter-node transfers — the paper's central
// design goal ("perfect overlap of intra- and inter-node communications").
type Overlap struct {
	NetBusy  float64 // time with >= 1 inter-node transfer in flight
	CopyBusy float64 // time with >= 1 intra-node copy in flight
	Both     float64 // time with both concurrently in flight
}

// HiddenFraction is the share of intra-node copy time overlapped by
// inter-node transfers (0 when no copies ran).
func (o Overlap) HiddenFraction() float64 {
	if o.CopyBusy <= 0 {
		return 0
	}
	return o.Both / o.CopyBusy
}

// MeasureOverlap reads the machine's class-activity integrals.
func MeasureOverlap(m *topology.Machine) Overlap {
	return Overlap{
		NetBusy:  m.Fab.ClassBusyTime("net"),
		CopyBusy: m.Fab.ClassBusyTime("copy"),
		Both:     m.Fab.OverlapTime("net", "copy"),
	}
}
