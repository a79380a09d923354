package main

import (
	"bytes"
	"strings"
	"testing"

	"hierknem"
)

// Mirrors cmd/hierbench's determinism golden: the same sweep on the same
// configuration must print the same bytes every time in the same process,
// and a parallel pool must print exactly what the serial pool prints.

// tinySweep runs a scaled-down size sweep into a buffer.
func tinySweep(t *testing.T, ops []string, parallel int) string {
	t.Helper()
	spec := hierknem.Parapluie(2)
	var out bytes.Buffer
	err := runSweep(&out, nil, spec, "bycore", 0, ops,
		spec.Nodes*spec.CoresPerNode(), 1<<10, 64<<10, 2, parallel)
	if err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestSweepDeterministic(t *testing.T) {
	ops := []string{"bcast", "reduce"}
	first := tinySweep(t, ops, 1)
	if first == "" {
		t.Fatal("sweep printed nothing")
	}
	if !strings.Contains(first, "# Benchmarking bcast") {
		t.Fatalf("missing bcast table:\n%s", first)
	}
	second := tinySweep(t, ops, 1)
	if first != second {
		t.Fatalf("imb sweep is nondeterministic:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

func TestSweepParallelMatchesSerial(t *testing.T) {
	ops := []string{"bcast", "reduce", "gather"}
	serial := tinySweep(t, ops, 1)
	parallel := tinySweep(t, ops, 8)
	if serial != parallel {
		t.Fatalf("imb sweep output differs between -parallel 1 and -parallel 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestCheckCounts pins the up-front rejection of counts that used to reach
// the jobs and panic once per job.
func TestCheckCounts(t *testing.T) {
	for _, tc := range []struct {
		nodes, np int
		min, max  int64
		iters     int
		ok        bool
	}{
		{2, 48, 1024, 4096, 3, true}, {2, 1, 1, 1, 1, true},
		{0, 0, 1024, 4096, 3, false}, {-1, 24, 1024, 4096, 3, false},
		{2, 0, 1024, 4096, 3, false}, {2, -4, 1024, 4096, 3, false}, {2, 49, 1024, 4096, 3, false},
		// a size of zero never doubles past -max: planning the sweep would not end
		{2, 48, 0, 4096, 3, false}, {2, 48, -8, 4096, 3, false}, {2, 48, 4096, 1024, 3, false},
		// no iterations to time: every job would panic in the timing loop
		{2, 48, 1024, 4096, 0, false}, {2, 48, 1024, 4096, -1, false},
	} {
		spec := hierknem.Parapluie(tc.nodes)
		if err := checkCounts(&spec, tc.np, tc.min, tc.max, tc.iters); (err == nil) != tc.ok {
			t.Errorf("checkCounts(nodes=%d, np=%d, min=%d, max=%d, iters=%d) = %v, want ok=%v",
				tc.nodes, tc.np, tc.min, tc.max, tc.iters, err, tc.ok)
		}
	}
}
