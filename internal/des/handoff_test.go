package des_test

import (
	"testing"

	"hierknem"
	"hierknem/internal/des"
	"hierknem/internal/imb"
)

// handoffWorkload is one of the benchmark's in-process workloads (bench/),
// built the way the benchmark builds it: one world, reset before each op.
type handoffWorkload struct {
	name    string
	cluster func(nodes int) hierknem.Spec
	nodes   int
	flat    bool
	op      string
	bytes   int64
	opts    imb.Opts
	aspN    int
}

func handoffWorkloads() []handoffWorkload {
	rotating := imb.Opts{Iterations: 3, Warmup: 1, RotateRoot: true}
	return []handoffWorkload{
		{"bcast_small", hierknem.Stremi, 32, false, "bcast", 2 << 10, rotating, 0},
		{"bcast_large", hierknem.Stremi, 32, false, "bcast", 1 << 20, rotating, 0},
		{"reduce_large", hierknem.Stremi, 32, false, "reduce", 1 << 20, rotating, 0},
		{"allgather_ring", hierknem.Parapluie, 12, false, "allgather", 128 << 10, imb.Opts{Iterations: 1, Warmup: 1, RotateRoot: true}, 0},
		{"flat_bcast", hierknem.Stremi, 32, true, "bcast", 1 << 20, rotating, 0},
		{"asp", hierknem.Stremi, 8, false, "asp", 0, imb.Opts{}, 512},
	}
}

// counts runs one op of w and returns its hand-offs, heap pushes and events.
func (wl handoffWorkload) counts(t *testing.T) (handoffs, pushes, events uint64) {
	spec := wl.cluster(wl.nodes)
	w, err := hierknem.NewWorld(spec, "bycore", spec.Nodes*spec.CoresPerNode())
	if err != nil {
		t.Fatal(err)
	}
	var mod hierknem.Module = hierknem.ForCluster(&spec)
	if wl.flat {
		mod = hierknem.Lineup(&spec)[1]
	}
	w.Reset()
	if wl.op == "asp" {
		hierknem.RunASP(w, mod, wl.aspN, 0)
	} else if _, err := imb.RunOp(w, mod, wl.op, wl.bytes, wl.opts); err != nil {
		t.Fatal(err)
	}
	e := w.Machine.Eng
	return des.Handoffs(e), des.HeapPushes(e), e.Processed()
}

// TestHandoffsPerOp reports, per benchmark op, how often the engine
// switched into a rank and how many events went through the heap (go test
// -v shows the table DESIGN.md §5.2 quotes). The barrier, blackboard and
// request waits run as stepped waits, which keeps bcast_small, whose
// 768-rank dissemination barrier took 53,631 of 81,980 hand-offs when each
// of its sleeps and parks was a switch, under 30,000. A HierKNEM Bcast
// non-leader runs its whole lookup, barrier and get sequence as one stepped
// wait, which keeps bcast_large, at 210,207 hand-offs when each barrier and
// get was a switch of its own, under 30,000 too. A HierKNEM Reduce
// non-leader runs its whole per-segment receive, reduction and send, and
// the final barrier, as one stepped wait, which keeps reduce_large, at
// 171,191 hand-offs when each of those waits was a switch, under 45,000:
// what still switches there is the two leaders of each node and the
// hierarchy's communicator splits.
func TestHandoffsPerOp(t *testing.T) {
	if testing.Short() {
		t.Skip("768-rank workloads")
	}
	bound := map[string]uint64{"bcast_small": 30000, "bcast_large": 30000, "reduce_large": 45000}
	for _, wl := range handoffWorkloads() {
		h, p, ev := wl.counts(t)
		t.Logf("%-15s hand-offs %9d  heap pushes %9d  events %9d", wl.name, h, p, ev)
		if b, ok := bound[wl.name]; ok && h > b {
			t.Errorf("%s: %d hand-offs per op, want at most %d", wl.name, h, b)
		}
	}
}
