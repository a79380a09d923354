package hierknem_test

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"hierknem"
	"hierknem/internal/asp"
	"hierknem/internal/buffer"
	"hierknem/internal/imb"
)

// Build a simulated cluster, broadcast real data with HierKNEM, verify
// delivery, and compare its virtual-time cost against Open MPI's Tuned
// module: the core of what the HierKNEM paper is about.
func Example_quickstart() {
	// A 4-node slice of the paper's InfiniBand cluster (Parapluie):
	// 2 sockets x 12 cores per node, IB 20G between nodes.
	spec := hierknem.Parapluie(4)
	np := spec.Nodes * spec.CoresPerNode() // 96 ranks, one per core
	mod := hierknem.ForCluster(&spec)      // HierKNEM with Table-I pipeline sizes

	// 1. Correctness: broadcast real bytes and check every rank.
	w, err := hierknem.NewWorld(spec, "bycore", np)
	if err != nil {
		log.Fatal(err)
	}
	payload := []byte("kernel-assisted, topology-aware, overlapped")
	wrong := 0
	err = w.Run(func(p *hierknem.Proc) {
		c := w.WorldComm()
		buf := buffer.NewReal(make([]byte, len(payload)))
		if c.Rank(p) == 0 {
			copy(buf.Data(), payload)
		}
		mod.Bcast(p, c, buf, 0)
		if !bytes.Equal(buf.Data(), payload) {
			wrong++
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("broadcast to %d ranks across %d nodes: %d wrong payloads, finished at t=%.1f us\n",
		np, spec.Nodes, wrong, w.Now()*1e6)

	// 2. Performance: HierKNEM vs Open MPI Tuned at 1 MB, each on a fresh
	// world.
	const size = 1 << 20
	opts := imb.Opts{Iterations: 3, Warmup: 1}
	var avg [2]float64
	for i, m := range []hierknem.Module{mod, hierknem.Tuned(hierknem.Quirks{})} {
		w, err := hierknem.NewWorld(spec, "bycore", np)
		if err != nil {
			log.Fatal(err)
		}
		avg[i] = hierknem.BenchBcast(w, m, size, opts).AvgTime
	}
	fmt.Printf("1MB bcast: hierknem %.1f us, tuned %.1f us, speedup %.1fx\n",
		avg[0]*1e6, avg[1]*1e6, avg[1]/avg[0])
	// Output:
	// broadcast to 96 ranks across 4 nodes: 0 wrong payloads, finished at t=24.1 us
	// 1MB bcast: hierknem 3686.3 us, tuned 6871.1 us, speedup 1.9x
}

// The "framework" part of HierKNEM: one module, no reconfiguration, and it
// morphs per the paper's section III:
//
//   - all ranks on one node      -> the KNEM-collective linear broadcast
//   - one rank per node          -> a pure inter-node pipelined tree
//   - small nodes (<=6 ranks)    -> leader-based Allgather
//   - large NUMA nodes           -> topology-aware ring Allgather
//   - deep pipelines             -> chain spanning tree
//
// Each regime runs on a suitably shaped cluster, with the same data
// verified in every one.
func Example_adaptive() {
	run := func(title string, spec hierknem.Spec, ppn int, bench func(w *hierknem.World, mod hierknem.Module) string) {
		w, err := hierknem.NewWorldPPN(spec, ppn)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s %s\n", title, bench(w, hierknem.ForCluster(&spec)))
	}
	opts := imb.Opts{Iterations: 3, Warmup: 1}
	bcast := func(w *hierknem.World, mod hierknem.Module) string {
		return fmt.Sprintf("1MB bcast %.1f us", hierknem.BenchBcast(w, mod, 1<<20, opts).AvgTime*1e6)
	}
	allgather := func(w *hierknem.World, mod hierknem.Module) string {
		return fmt.Sprintf("256KB allgather %.1f us", hierknem.BenchAllgather(w, mod, 256<<10, opts).AvgTime*1e6)
	}
	run("single node (KNEM linear):", hierknem.Parapluie(1), 24, bcast)
	run("one rank/node (inter-node tree):", hierknem.Parapluie(16), 1, bcast)
	run("4 ranks/node (leader allgather):", hierknem.Parapluie(8), 4, allgather)
	run("24 ranks/node (ring allgather):", hierknem.Parapluie(8), 24, allgather)
	run("slow net (chain pipeline):", hierknem.Stremi(8), 24, func(w *hierknem.World, mod hierknem.Module) string {
		r := hierknem.BenchBcast(w, mod, 4<<20, imb.Opts{Iterations: 2, Warmup: 1})
		return fmt.Sprintf("4MB bcast %.1f ms", r.AvgTime*1e3)
	})

	for _, nodes := range []int{1, 4} {
		spec := hierknem.Parapluie(nodes)
		w, err := hierknem.NewWorldPPN(spec, 6)
		if err != nil {
			log.Fatal(err)
		}
		mod := hierknem.ForCluster(&spec)
		want := []byte("same bytes in every regime")
		bad := 0
		err = w.Run(func(p *hierknem.Proc) {
			c := w.WorldComm()
			buf := buffer.NewReal(make([]byte, len(want)))
			if c.Rank(p) == 0 {
				copy(buf.Data(), want)
			}
			mod.Bcast(p, c, buf, 0)
			if !bytes.Equal(buf.Data(), want) {
				bad++
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("verified on %d node(s): %d wrong payloads\n", nodes, bad)
	}
	// Output:
	// single node (KNEM linear):         1MB bcast 3571.2 us
	// one rank/node (inter-node tree):   1MB bcast 1723.7 us
	// 4 ranks/node (leader allgather):   256KB allgather 4844.3 us
	// 24 ranks/node (ring allgather):    256KB allgather 65120.4 us
	// slow net (chain pipeline):         4MB bcast 43.0 ms
	// verified on 1 node(s): 0 wrong payloads
	// verified on 4 node(s): 0 wrong payloads
}

// The paper's Figure 6 in miniature. Process placement (by-core vs by-node)
// devastates topology-unaware collectives: a rank-ordered ring under
// by-node binding pushes every edge across the network, while HierKNEM
// rebuilds its ring from physical positions, so only one edge per node
// crosses the network under either binding.
func Example_placement() {
	spec := hierknem.Parapluie(4)
	np := spec.Nodes * spec.CoresPerNode()
	const block = 256 << 10 // per-rank allgather contribution

	fmt.Printf("Allgather of %d KB per rank, %d ranks on %d nodes\n", block>>10, np, spec.Nodes)
	fmt.Printf("%-10s %12s %12s %8s\n", "module", "bycore (us)", "bynode (us)", "penalty")
	for _, mod := range []hierknem.Module{hierknem.ForCluster(&spec), hierknem.Tuned(hierknem.Quirks{})} {
		var avg [2]float64
		for i, binding := range []string{"bycore", "bynode"} {
			w, err := hierknem.NewWorld(spec, binding, np)
			if err != nil {
				log.Fatal(err)
			}
			avg[i] = hierknem.BenchAllgather(w, mod, block, imb.Opts{Iterations: 3, Warmup: 1}).AvgTime
		}
		fmt.Printf("%-10s %12.1f %12.1f %7.2fx\n", mod.Name(), avg[0]*1e6, avg[1]*1e6, avg[1]/avg[0])
	}
	// Output:
	// Allgather of 256 KB per rank, 96 ranks on 4 nodes
	// module      bycore (us)  bynode (us)  penalty
	// hierknem        32404.6      32405.0    1.00x
	// tuned           32404.6     317422.8    9.80x
}

// The paper's Figure 7 in miniature. On a slow network (Gigabit Ethernet)
// HierKNEM's broadcast time is bounded by inter-node forwarding: intra-node
// distribution is offloaded to non-leader cores and fully overlapped, so
// adding cores per node adds aggregate bandwidth for free, until the
// intra-node pipe itself becomes the bottleneck on fast networks.
func Example_scaling() {
	const size = 2 << 20 // 2MB broadcast, as in Figure 7
	for _, spec := range []hierknem.Spec{hierknem.Stremi(8), hierknem.Parapluie(8)} {
		mod := hierknem.ForCluster(&spec)
		fmt.Printf("%s, 2MB HierKNEM broadcast, %d nodes:\n", spec.Name, spec.Nodes)
		fmt.Printf("%6s %10s %14s %12s\n", "ppn", "time (ms)", "agg BW (MB/s)", "vs 1 ppn")
		var base float64
		for _, ppn := range []int{1, 2, 4, 8, 12, 16, 24} {
			w, err := hierknem.NewWorldPPN(spec, ppn)
			if err != nil {
				log.Fatal(err)
			}
			r := hierknem.BenchBcast(w, mod, size, imb.Opts{Iterations: 3, Warmup: 1})
			if ppn == 1 {
				base = r.AvgTime
			}
			fmt.Printf("%6d %10.2f %14.0f %11.2fx\n", ppn, r.AvgTime*1e3, r.AggBW/1e6, r.AvgTime/base)
		}
	}
	// Output:
	// stremi, 2MB HierKNEM broadcast, 8 nodes:
	//    ppn  time (ms)  agg BW (MB/s)     vs 1 ppn
	//      1      23.52            624        1.00x
	//      2      23.57           1334        1.00x
	//      4      23.63           2752        1.00x
	//      8      23.64           5589        1.00x
	//     12      23.43           8502        1.00x
	//     16      23.48          11342        1.00x
	//     24      23.32          17177        0.99x
	// parapluie, 2MB HierKNEM broadcast, 8 nodes:
	//    ppn  time (ms)  agg BW (MB/s)     vs 1 ppn
	//      1       1.76           8347        1.00x
	//      2       1.77          17777        1.01x
	//      4       1.94          33475        1.10x
	//      8       3.17          41656        1.80x
	//     12       4.84          41125        2.75x
	//     16       5.69          46811        3.24x
	//     24       7.36          54416        4.19x
}

// The paper's application study (Table II) on a small instance. The
// parallel Floyd-Warshall solver broadcasts one matrix row per iteration;
// with a slow broadcast the application spends most of its time
// communicating, and swapping in HierKNEM reclaims it without touching a
// line of application code. A real-data run then checks the solver against
// the sequential one.
func Example_asp() {
	spec := hierknem.Stremi(4) // Ethernet: where collectives hurt the most
	np := spec.Nodes * spec.CoresPerNode()
	const n = 512

	fmt.Printf("ASP, N=%d, %d ranks on %d Ethernet nodes\n", n, np, spec.Nodes)
	fmt.Printf("%-10s %10s %10s %6s\n", "module", "bcast (s)", "total (s)", "comm")
	for _, mod := range hierknem.Lineup(&spec) {
		w, err := hierknem.NewWorld(spec, "bycore", np)
		if err != nil {
			log.Fatal(err)
		}
		res := hierknem.RunASP(w, mod, n, 0)
		fmt.Printf("%-10s %10.3f %10.3f %5.1f%%\n", mod.Name(), res.Bcast, res.Total, 100*res.Bcast/res.Total)
	}

	const small = 48
	rng := rand.New(rand.NewSource(7))
	d := make([][]float64, small)
	for i := range d {
		d[i] = make([]float64, small)
		for j := range d[i] {
			switch {
			case i == j:
				d[i][j] = 0
			case rng.Float64() < 0.3:
				d[i][j] = float64(1 + rng.Intn(20))
			default:
				d[i][j] = asp.Inf
			}
		}
	}
	ref := make([][]float64, small)
	for i := range ref {
		ref[i] = append([]float64(nil), d[i]...)
	}
	asp.Sequential(ref)
	w, err := hierknem.NewWorld(spec, "bycore", np)
	if err != nil {
		log.Fatal(err)
	}
	got := hierknem.SolveASP(w, hierknem.ForCluster(&spec), d)
	wrong := 0
	for i := range ref {
		for j := range ref[i] {
			if got[i][j] != ref[i][j] {
				wrong++
			}
		}
	}
	fmt.Printf("real data, %dx%d: %d entries differ from the sequential solver\n", small, small, wrong)
	// Output:
	// ASP, N=512, 96 ranks on 4 Ethernet nodes
	// module      bcast (s)  total (s)   comm
	// hierknem        0.141      0.159  88.7%
	// tuned           0.733      0.751  97.6%
	// hierarch        0.174      0.192  90.6%
	// mpich2          0.220      0.238  92.5%
	// real data, 48x48: 0 entries differ from the sequential solver
}
