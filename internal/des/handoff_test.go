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
		{"allgather_serial", hierknem.Stremi, 4, true, "allgather", 128 << 10, imb.Opts{Iterations: 1, Warmup: 1, RotateRoot: true}, 0, 0},
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
	return e.Handoffs(), des.HeapPushes(e), e.Processed()
}

// TestHandoffsPerOp reports, per benchmark op, how often the engine
// switched into a rank and how many events went through the heap (go test
// -v shows the table DESIGN.md §5.2 quotes). Two rows are no benchmark
// workload: allgather_leader is the leader-based Allgather, 6 ranks per
// node, and allgather_serial is Tuned's serialized ring Allgather on 4
// Stremi nodes, whose steps each end in the penalty sleep. The barrier,
// blackboard and request waits run as stepped waits, which kept
// bcast_small, whose 768-rank dissemination barrier took 53,631 of 81,980
// hand-offs when each of its sleeps and parks was a switch, at 25,476.
// HierKNEM's role interpreter (core.roleRun) runs a rank's whole part of a
// call as one stepped wait. It runs both sides of a Bcast, which took
// bcast_large from 210,207 hand-offs, when each non-leader barrier and get
// was a switch, and 23,628, while the 32 leaders still ran process-style,
// to 16,120; the Reduce non-leaders' receives, reductions and sends, which
// took reduce_large from 171,191 to 39,847; and both sides of the
// leader-based Allgather, which took allgather_leader from 4,772 to 788.
// coll's exchange loops (the ring and recursive-doubling Allgathers and
// Allreduces) run as one stepped wait per call, which keeps
// allgather_ring, at 288,484 hand-offs when each wait was a switch, under
// 5,000, and allgather_serial, at 29,703, under 1,000. A HierKNEM call's
// hierarchy (the topology-detection charge and hier.Build's two
// communicator splits, and the Reduce's new_comm split) is built in one
// stepped wait, the role interpreter's own where the call runs one:
// bcast_small 25,476 -> under 20,000 (process-style bcastSmall, one wait
// for the build instead of three), bcast_large 16,120 -> under 7,500,
// reduce_large 39,847 -> under 30,000 (what still switches there is the two
// leaders of each node), allgather_leader 788 -> under 400, and asp, two
// switches per row broadcast (the call and ASP's compute sleep) where it
// took five, 490,688 -> under 200,000.
func TestHandoffsPerOp(t *testing.T) {
	if testing.Short() {
		t.Skip("768-rank workloads")
	}
	bound := map[string]uint64{"bcast_small": 20000, "bcast_large": 7500, "reduce_large": 30000, "allgather_ring": 5000,
		"asp": 200000, "allgather_leader": 400, "allgather_serial": 1000}
	for _, wl := range handoffWorkloads() {
		h, p, ev := wl.counts(t)
		t.Logf("%-16s hand-offs %9d  heap pushes %9d  events %9d", wl.name, h, p, ev)
		if b, ok := bound[wl.name]; ok && h > b {
			t.Errorf("%s: %d hand-offs per op, want at most %d", wl.name, h, b)
		}
	}
}
