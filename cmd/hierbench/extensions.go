package main

import (
	"fmt"

	"hierknem"
	"hierknem/internal/core"
	"hierknem/internal/imb"
	"hierknem/internal/sweep"
	"hierknem/internal/trace"
)

// benchWithOverlap is an ablation §1 data point: the measurement plus the
// copy/network overlap integrals of its run, read inside the job (before
// the worker's next job resets the world).
type benchWithOverlap struct {
	r imb.Result
	o trace.Overlap
}

// ablation prints the four design-choice ablations DESIGN.md calls out, at
// full cluster population.
func ablation(cfg config, s *sweep.Sweep) func() {
	opts := imb.Opts{Iterations: cfg.iters, Warmup: 1}
	stremi := clusterSpec("stremi", cfg.nodes)
	para := clusterSpec("parapluie", cfg.nodes)

	// 1. Offload + overlap: HierKNEM vs the non-offloaded two-level design,
	// with the measured fraction of intra-node copy time hidden under
	// inter-node transfers.
	offloadMods := func() []hierknem.Module {
		return []hierknem.Module{
			hierknem.ForCluster(&stremi),
			hierknem.Hierarch(hierknem.Quirks{SerializedRing: true}),
		}
	}
	var offload []*sweep.Future[benchWithOverlap]
	for mi, mod := range offloadMods() {
		id := "ablation/offload/" + mod.Name()
		offload = append(offload, sweep.Go(s, id, func(c *sweep.Ctx) benchWithOverlap {
			w := c.World(stremi, "bycore", fullNP(stremi))
			r := hierknem.BenchBcast(w, offloadMods()[mi], 1<<20, opts)
			return benchWithOverlap{r: r, o: trace.MeasureOverlap(w.Machine)}
		}))
	}

	// 2. Pipelining: segmented vs whole-message forwarding.
	plCases := []struct {
		name string
		pl   int64
	}{
		{"pipelined (32KB)", 32 << 10},
		{"whole-message", 16 << 20},
	}
	var pipelined []*sweep.Future[imb.Result]
	for _, cse := range plCases {
		id := "ablation/pipelining/" + cse.name
		pipelined = append(pipelined, sweep.Go(s, id, func(c *sweep.Ctx) imb.Result {
			mod := hierknem.New(core.Options{BcastPipeline: core.FixedPipeline(cse.pl)})
			return hierknem.BenchBcast(c.World(stremi, "bycore", fullNP(stremi)), mod, 4<<20, opts)
		}))
	}

	// 3. Topology-aware ring under by-node placement.
	ringCases := []struct {
		name string
		opt  core.Options
	}{
		{"physical order", core.Options{ForceAllgather: core.AllgatherRing}},
		{"rank order", core.Options{ForceAllgather: core.AllgatherRing, RankOrderedRing: true}},
	}
	var rings []*sweep.Future[imb.Result]
	for _, cse := range ringCases {
		id := "ablation/ring/" + cse.name
		rings = append(rings, sweep.Go(s, id, func(c *sweep.Ctx) imb.Result {
			return hierknem.BenchAllgather(c.World(para, "bynode", fullNP(para)), hierknem.New(cse.opt), 128<<10, opts)
		}))
	}

	// 4. Double-leader reduce vs single-leader shared-memory reduce.
	leaderMods := func() []hierknem.Module {
		return []hierknem.Module{
			hierknem.New(core.Options{}),
			hierknem.MVAPICH2(),
		}
	}
	var leaders []*sweep.Future[imb.Result]
	for mi := range leaderMods() {
		id := "ablation/double-leader/" + leaderMods()[mi].Name()
		leaders = append(leaders, sweep.Go(s, id, func(c *sweep.Ctx) imb.Result {
			return hierknem.BenchReduce(c.World(para, "bycore", fullNP(para)), leaderMods()[mi], 4<<20, opts)
		}))
	}

	// 5. Topology-map caching (the paper's future work, implemented).
	cacheCases := []struct {
		name  string
		cache bool
	}{
		{"detect every call", false},
		{"cached at comm creation", true},
	}
	var caches []*sweep.Future[imb.Result]
	for _, cse := range cacheCases {
		id := "ablation/topo-cache/" + cse.name
		caches = append(caches, sweep.Go(s, id, func(c *sweep.Ctx) imb.Result {
			mod := hierknem.New(core.Options{CacheTopology: cse.cache, TopoDetectCost: 4e-6})
			return hierknem.BenchBcast(c.World(para, "bycore", fullNP(para)), mod, 16<<10, opts)
		}))
	}

	return func() {
		header("Ablations — the framework's design choices in isolation",
			fmt.Sprintf("%d nodes, full population", cfg.nodes))

		fmt.Println("1. KNEM offload + pipelined overlap (1MB bcast, Ethernet):")
		for mi, mod := range offloadMods() {
			bo := offload[mi].Get()
			fmt.Printf("   %-22s %10.2f ms   (%.0f%% of copy time hidden under the network)\n",
				mod.Name(), bo.r.AvgTime*1e3, 100*bo.o.HiddenFraction())
		}

		fmt.Println("2. Cross-level pipelining (4MB bcast, Ethernet):")
		for i, cse := range plCases {
			fmt.Printf("   %-22s %10.2f ms\n", cse.name, pipelined[i].Get().AvgTime*1e3)
		}

		fmt.Println("3. Topology-aware ring construction (128KB allgather, by-node, IB):")
		for i, cse := range ringCases {
			fmt.Printf("   %-22s %10.2f ms\n", cse.name, rings[i].Get().AvgTime*1e3)
		}

		fmt.Println("4. Double-leader Reduce (4MB, IB, quirk-free comparison):")
		for mi, mod := range leaderMods() {
			fmt.Printf("   %-22s %10.2f ms\n", mod.Name(), leaders[mi].Get().AvgTime*1e3)
		}

		fmt.Println("5. Topology-map caching (16KB bcast, IB — section IV-G overhead):")
		for i, cse := range cacheCases {
			fmt.Printf("   %-22s %10.1f us\n", cse.name, caches[i].Get().AvgTime*1e6)
		}
	}
}

// extensions prints the extension collectives (Scatter, Gather, Allreduce)
// across the full lineup — operations a production HierKNEM release ships
// beyond the paper's three.
func extensions(cfg config, s *sweep.Sweep) func() {
	type cell struct{ op, mod string }
	clusterNames := []string{"stremi", "parapluie"}
	opts := imb.Opts{Iterations: cfg.iters, Warmup: 1}
	ops := []struct {
		name  string
		op    string
		bytes int64
	}{
		{"allreduce 1MB", "allreduce", 1 << 20},
		{"scatter 64KB/rank", "scatter", 64 << 10},
		{"gather 64KB/rank", "gather", 64 << 10},
	}

	futs := map[string]map[cell]*sweep.Future[imb.Result]{}
	names := map[string][]string{}
	for _, cluster := range clusterNames {
		spec := clusterSpec(cluster, cfg.nodes)
		futs[cluster] = map[cell]*sweep.Future[imb.Result]{}
		for mi, mod := range hierknem.Lineup(&spec) {
			names[cluster] = append(names[cluster], mod.Name())
			for _, op := range ops {
				id := fmt.Sprintf("extensions/%s/%s/%s", cluster, mod.Name(), op.op)
				key := cell{op: op.op, mod: mod.Name()}
				futs[cluster][key] = sweep.Go(s, id, func(c *sweep.Ctx) imb.Result {
					mod := hierknem.Lineup(&spec)[mi]
					w := c.World(spec, "bycore", fullNP(spec))
					r, err := imb.RunOp(w, mod, op.op, op.bytes, opts)
					if err != nil {
						panic(err)
					}
					return r
				})
			}
		}
	}
	return func() {
		for _, cluster := range clusterNames {
			spec := clusterSpec(cluster, cfg.nodes)
			header("Extension collectives — "+cluster,
				fmt.Sprintf("%d nodes, %d processes, by-core", cfg.nodes, fullNP(spec)))
			fmt.Printf("%-12s", "module")
			for _, op := range ops {
				fmt.Printf("%20s", op.name)
			}
			fmt.Println("   (avg ms)")
			for _, name := range names[cluster] {
				fmt.Printf("%-12s", name)
				for _, op := range ops {
					r := futs[cluster][cell{op: op.op, mod: name}].Get()
					fmt.Printf("%20.2f", r.AvgTime*1e3)
				}
				fmt.Println()
			}
		}
	}
}
