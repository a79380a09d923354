package main

import (
	"testing"

	"hierknem"
	"hierknem/internal/asp"
)

// The -seed flag promises replayability: the same seed must regenerate the
// same verification graph, and the simulated solver must keep agreeing with
// the sequential Floyd-Warshall on it. The timing side has the same
// contract: two identical ASP runs must report the bit-identical
// communication/total breakdown.

func TestRandomGraphSeedReplay(t *testing.T) {
	a := randomGraph(64, 7)
	b := randomGraph(64, 7)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("seed 7 replay diverges at (%d,%d): %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	c := randomGraph(64, 8)
	same := true
	for i := range a {
		for j := range a[i] {
			if a[i][j] != c[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 generated identical graphs")
	}
}

// TestVerifyReplaySolvesIdentically is the in-process version of
// `asp -verify -seed 11`: the simulated solver on a real seeded instance
// must match the sequential solver cell for cell.
func TestVerifyReplaySolvesIdentically(t *testing.T) {
	const n = 48
	d := randomGraph(n, 11)
	ref := make([][]float64, n)
	for i := range ref {
		ref[i] = append([]float64(nil), d[i]...)
	}
	asp.Sequential(ref)

	spec := hierknem.Stremi(2)
	mods := hierknem.Lineup(&spec)
	w, err := hierknem.NewWorld(spec, "bycore", spec.Nodes*spec.CoresPerNode())
	if err != nil {
		t.Fatal(err)
	}
	got := hierknem.SolveASP(w, mods[0], d)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got[i][j] != ref[i][j] {
				t.Fatalf("(%d,%d): simulated %v, sequential %v", i, j, got[i][j], ref[i][j])
			}
		}
	}
}

// TestASPBreakdownReplay runs the timing skeleton twice on identical
// configurations: the reported bcast/total breakdown must be bit-identical.
func TestASPBreakdownReplay(t *testing.T) {
	run := func() hierknem.ASPResult {
		spec := hierknem.Stremi(2)
		mods := hierknem.Lineup(&spec)
		w, err := hierknem.NewWorld(spec, "bycore", spec.Nodes*spec.CoresPerNode())
		if err != nil {
			t.Fatal(err)
		}
		return hierknem.RunASP(w, mods[0], 128, 0)
	}
	a, b := run(), run()
	if a.Bcast != b.Bcast || a.Total != b.Total {
		t.Fatalf("ASP replay diverges: bcast %g vs %g, total %g vs %g",
			a.Bcast, b.Bcast, a.Total, b.Total)
	}
	if a.Total <= 0 || a.Bcast <= 0 || a.Bcast > a.Total {
		t.Fatalf("implausible breakdown: bcast %g, total %g", a.Bcast, a.Total)
	}
}

// TestCheckCounts pins the up-front rejection of counts no run can use: left
// to the run, -nodes 0 fails after the table header, -n 0 prints NaN rows
// and a negative -n panics inside a rank.
func TestCheckCounts(t *testing.T) {
	for _, tc := range []struct {
		nodes, n int
		ok       bool
	}{
		{2, 64, true}, {1, 1, true},
		{0, 64, false}, {-3, 64, false},
		{2, 0, false}, {2, -5, false},
	} {
		spec := hierknem.Stremi(tc.nodes)
		if err := checkCounts(&spec, tc.n); (err == nil) != tc.ok {
			t.Errorf("checkCounts(nodes=%d, n=%d) = %v, want ok=%v", tc.nodes, tc.n, err, tc.ok)
		}
	}
}
