package des_test

import (
	"testing"

	"hierknem"
	"hierknem/internal/des"
	"hierknem/internal/imb"
)

// handoffWorkload is one of the benchmark's in-process workloads (bench/),
// built the way the benchmark builds it: one world, reset before each op.
// ppn, when set, places that many ranks per node instead of one per core.
type handoffWorkload struct {
	name    string
	cluster func(nodes int) hierknem.Spec
	nodes   int
	flat    bool
	op      string
	bytes   int64
	opts    imb.Opts
	aspN    int
	ppn     int
}

func handoffWorkloads() []handoffWorkload {
	rotating := imb.Opts{Iterations: 3, Warmup: 1, RotateRoot: true}
	return []handoffWorkload{
		{"bcast_small", hierknem.Stremi, 32, false, "bcast", 2 << 10, rotating, 0, 0},
		{"bcast_large", hierknem.Stremi, 32, false, "bcast", 1 << 20, rotating, 0, 0},
		{"reduce_large", hierknem.Stremi, 32, false, "reduce", 1 << 20, rotating, 0, 0},
		{"allgather_ring", hierknem.Parapluie, 12, false, "allgather", 128 << 10, imb.Opts{Iterations: 1, Warmup: 1, RotateRoot: true}, 0, 0},
		{"flat_bcast", hierknem.Stremi, 32, true, "bcast", 1 << 20, rotating, 0, 0},
		{"asp", hierknem.Stremi, 8, false, "asp", 0, imb.Opts{}, 512, 0},
		{"allgather_leader", hierknem.Parapluie, 12, false, "allgather", 128 << 10, imb.Opts{Iterations: 1, Warmup: 1, RotateRoot: true}, 0, 6},
	}
}

// counts runs one op of w and returns its hand-offs, heap pushes and events.
func (wl handoffWorkload) counts(t *testing.T) (handoffs, pushes, events uint64) {
	spec := wl.cluster(wl.nodes)
	w, err := hierknem.NewWorld(spec, "bycore", spec.Nodes*spec.CoresPerNode())
	if wl.ppn > 0 {
		w, err = hierknem.NewWorldPPN(spec, wl.ppn)
	}
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
// -v shows the table DESIGN.md §5.2 quotes; allgather_leader is the
// leader-based Allgather, 6 ranks per node, which no benchmark workload
// runs). The barrier, blackboard and request waits run as stepped waits,
// which keeps bcast_small, whose 768-rank dissemination barrier took 53,631
// of 81,980 hand-offs when each of its sleeps and parks was a switch, under
// 30,000. HierKNEM's role interpreter (core.roleRun) runs a rank's whole
// part of a call as one stepped wait. It runs both sides of a Bcast, which
// keeps bcast_large, at 210,207 hand-offs when each non-leader barrier and
// get was a switch and 23,628 while the 32 leaders still ran process-style,
// under 18,000; the Reduce non-leaders' receives, reductions and sends,
// which keeps reduce_large, at 171,191 hand-offs when each of those waits
// was a switch, under 45,000 (what still switches there is the two leaders
// of each node and the hierarchy's communicator splits); and both sides of
// the leader-based Allgather, which keeps allgather_leader, at 4,772
// hand-offs with both sides process-style, under 1,000.
func TestHandoffsPerOp(t *testing.T) {
	if testing.Short() {
		t.Skip("768-rank workloads")
	}
	bound := map[string]uint64{"bcast_small": 30000, "bcast_large": 18000, "reduce_large": 45000, "allgather_leader": 1000}
	for _, wl := range handoffWorkloads() {
		h, p, ev := wl.counts(t)
		t.Logf("%-16s hand-offs %9d  heap pushes %9d  events %9d", wl.name, h, p, ev)
		if b, ok := bound[wl.name]; ok && h > b {
			t.Errorf("%s: %d hand-offs per op, want at most %d", wl.name, h, b)
		}
	}
}
