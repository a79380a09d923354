package trace

import (
	"strings"
	"testing"

	"hierknem/internal/buffer"
	"hierknem/internal/mpi"
	"hierknem/internal/topology"
)

func runTraffic(t *testing.T) *topology.Machine {
	t.Helper()
	m, err := topology.Build(topology.Spec{
		Name: "tracetest", Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 2,
		MemBandwidth: 100, CoreCopyBandwidth: 40, L3Bandwidth: 80,
		L3Size: 1 << 20, ShmLatency: 0.5,
		NetBandwidth: 10, NetLatency: 1, EagerThreshold: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := topology.ByCore(m, 4)
	w, err := mpi.NewWorld(m, b, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) {
		c := w.WorldComm()
		if p.Rank() == 0 {
			p.Send(c, buffer.NewPhantom(100), 2, 0) // inter-node
		}
		if p.Rank() == 2 {
			p.Recv(c, buffer.NewPhantom(100), 0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSnapshotAccountsTraffic(t *testing.T) {
	m := runTraffic(t)
	stats := Snapshot(m)
	if len(stats) == 0 {
		t.Fatal("empty snapshot")
	}
	// The busiest resource carried the 100-byte transfer.
	if stats[0].BytesServed < 100-1e-6 {
		t.Fatalf("top resource served %g bytes, want >= 100", stats[0].BytesServed)
	}
	// Sorted descending.
	for i := 1; i < len(stats); i++ {
		if stats[i].BytesServed > stats[i-1].BytesServed {
			t.Fatal("snapshot not sorted by bytes served")
		}
	}
}

func TestReportFormat(t *testing.T) {
	m := runTraffic(t)
	rep := Report(m, 3)
	lines := strings.Split(strings.TrimSpace(rep), "\n")
	if len(lines) != 4 { // header + 3 rows
		t.Fatalf("report has %d lines:\n%s", len(lines), rep)
	}
	if !strings.Contains(lines[0], "resource") {
		t.Fatalf("missing header: %q", lines[0])
	}
}

func TestEmptyMachineSnapshot(t *testing.T) {
	m, err := topology.Build(topology.Spec{
		Name: "idle", Nodes: 1, SocketsPerNode: 1, CoresPerSocket: 1,
		MemBandwidth: 1, CoreCopyBandwidth: 1, NetBandwidth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := Snapshot(m)
	if len(stats) == 0 {
		t.Fatal("expected resources to exist")
	}
	for _, s := range stats {
		if s.BytesServed != 0 || s.Utilization != 0 {
			t.Fatalf("idle machine reports activity: %+v", s)
		}
	}
}
