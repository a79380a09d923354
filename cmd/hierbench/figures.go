package main

import (
	"fmt"

	"hierknem"
	"hierknem/internal/core"
	"hierknem/internal/imb"
	"hierknem/internal/sweep"
)

// fig1: effect of pipeline size on the HierKNEM Broadcast, Parapluie, full
// population. Runtime normalized to the 64KB pipeline (smaller is better).
// The normalization base is itself a data point, so rendering waits for the
// whole grid.
func fig1(cfg config, s *sweep.Sweep) func() {
	spec := clusterSpec("parapluie", cfg.nodes)
	pipelines := []int64{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10}
	msgs := []int64{1 << 20, 4 << 20, 8 << 20}

	futs := map[int64]map[int64]*sweep.Future[imb.Result]{}
	for _, msg := range msgs {
		futs[msg] = map[int64]*sweep.Future[imb.Result]{}
		for _, pl := range pipelines {
			id := fmt.Sprintf("fig1/%s/pl=%s", sizeLabel(msg), sizeLabel(pl))
			futs[msg][pl] = sweep.Go(s, id, func(c *sweep.Ctx) imb.Result {
				w := c.World(spec, "bycore", fullNP(spec))
				mod := hierknem.New(core.Options{BcastPipeline: core.FixedPipeline(pl)})
				return hierknem.BenchBcast(w, mod, msg, imb.Opts{Iterations: cfg.iters, Warmup: 1, RotateRoot: true})
			})
		}
	}
	return func() {
		header("Figure 1 — Pipeline size vs HierKNEM Bcast runtime",
			fmt.Sprintf("parapluie, %d nodes, %d processes; normalized to 64KB pipeline", cfg.nodes, fullNP(spec)))
		fmt.Printf("%-10s", "message")
		for _, pl := range pipelines {
			fmt.Printf("%10s", sizeLabel(pl))
		}
		fmt.Println("   (t_pipeline / t_64KB)")
		for _, msg := range msgs {
			fmt.Printf("%-10s", sizeLabel(msg))
			base := futs[msg][64<<10].Get().AvgTime
			for _, pl := range pipelines {
				fmt.Printf("%10.2f", futs[msg][pl].Get().AvgTime/base)
			}
			fmt.Println()
		}
	}
}

// fig2: leader-based vs ring Allgather bandwidth while growing processes
// per node, Parapluie, 512KB messages.
func fig2(cfg config, s *sweep.Sweep) func() {
	spec := clusterSpec("parapluie", cfg.nodes)
	ppns := []int{2, 4, 6, 8, 12, 16, 20, 24}
	algs := []core.AllgatherAlg{core.AllgatherLeader, core.AllgatherRing}

	futs := map[core.AllgatherAlg]map[int]*sweep.Future[imb.Result]{}
	for _, alg := range algs {
		futs[alg] = map[int]*sweep.Future[imb.Result]{}
		for _, ppn := range ppns {
			id := fmt.Sprintf("fig2/%s/ppn=%d", alg, ppn)
			futs[alg][ppn] = sweep.Go(s, id, func(c *sweep.Ctx) imb.Result {
				w := c.WorldPPN(spec, ppn)
				mod := hierknem.New(core.Options{ForceAllgather: alg})
				return hierknem.BenchAllgather(w, mod, 512<<10, imb.Opts{Iterations: cfg.iters, Warmup: 1})
			})
		}
	}
	return func() {
		header("Figure 2 — Leader-based vs Ring Allgather",
			fmt.Sprintf("parapluie, %d nodes, 512KB per-rank, 2..24 processes/node", cfg.nodes))
		fmt.Printf("%-14s", "ppn")
		for _, ppn := range ppns {
			fmt.Printf("%10d", ppn)
		}
		fmt.Println("   (aggregate bandwidth, MB/s)")
		for _, alg := range algs {
			fmt.Printf("%-14s", alg)
			for _, ppn := range ppns {
				fmt.Printf("%10.0f", futs[alg][ppn].Get().AggBW/1e6)
			}
			fmt.Println()
		}
	}
}

var figSizesBcast = []int64{8 << 10, 32 << 10, 128 << 10, 512 << 10, 2 << 20, 8 << 20}
var figSizesReduce = []int64{2 << 10, 8 << 10, 32 << 10, 128 << 10, 512 << 10, 2 << 20, 8 << 20}

// figSizesAllgather: the paper sweeps 8 KB-1 MB per rank; we decimate to two
// representative points because 768-rank ring simulations cost the most
// wall time of the whole suite (cmd/imb sweeps any range on demand).
var figSizesAllgather = []int64{64 << 10, 256 << 10}

// fig3: aggregate Broadcast bandwidth across modules.
func fig3(cfg config, s *sweep.Sweep, cluster string) func() {
	spec := clusterSpec(cluster, cfg.nodes)
	sub := map[string]string{"stremi": "a", "parapluie": "b"}[cluster]
	renderMatrix := planOpMatrix(cfg, s, "fig3"+sub, spec, "bcast", figSizesBcast)
	return func() {
		header("Figure 3("+sub+") — Aggregate Broadcast bandwidth",
			fmt.Sprintf("%s, %d nodes, %d processes, by-core", cluster, cfg.nodes, fullNP(spec)))
		renderMatrix()
	}
}

// fig4: aggregate Reduce bandwidth across modules.
func fig4(cfg config, s *sweep.Sweep, cluster string) func() {
	spec := clusterSpec(cluster, cfg.nodes)
	sub := map[string]string{"stremi": "a", "parapluie": "b"}[cluster]
	renderMatrix := planOpMatrix(cfg, s, "fig4"+sub, spec, "reduce", figSizesReduce)
	return func() {
		header("Figure 4("+sub+") — Aggregate Reduce bandwidth",
			fmt.Sprintf("%s, %d nodes, %d processes, by-core", cluster, cfg.nodes, fullNP(spec)))
		renderMatrix()
	}
}

// fig5: aggregate Allgather bandwidth across modules (no Hierarch: Open MPI
// does not implement one, exactly as in the paper).
func fig5(cfg config, s *sweep.Sweep, cluster string) func() {
	spec := clusterSpec(cluster, cfg.nodes)
	sub := map[string]string{"stremi": "a", "parapluie": "b"}[cluster]
	renderMatrix := planOpMatrix(cfg, s, "fig5"+sub, spec, "allgather", figSizesAllgather)
	return func() {
		header("Figure 5("+sub+") — Aggregate Allgather bandwidth",
			fmt.Sprintf("%s, %d nodes, %d processes, by-core (per-rank sizes)", cluster, cfg.nodes, fullNP(spec)))
		renderMatrix()
	}
}

// lineupFor returns a cluster's module lineup for an operation. Hierarch is
// dropped for allgather (index 2): not implemented in Open MPI either.
// Jobs rebuild the lineup themselves so no module — and its per-comm
// topology cache — is shared between concurrently running simulations.
func lineupFor(spec *hierknem.Spec, op string) []hierknem.Module {
	mods := hierknem.Lineup(spec)
	if op == "allgather" {
		mods = append(mods[:2:2], mods[3:]...)
	}
	return mods
}

// planOpMatrix submits one job per (module, size) cell and returns the
// matrix renderer (rows of aggregate bandwidth plus the speedup line).
func planOpMatrix(cfg config, s *sweep.Sweep, expID string, spec hierknem.Spec, op string, sizes []int64) func() {
	var names []string
	for _, mod := range lineupFor(&spec, op) {
		names = append(names, mod.Name())
	}
	futs := map[string]map[int64]*sweep.Future[imb.Result]{}
	for mi, name := range names {
		futs[name] = map[int64]*sweep.Future[imb.Result]{}
		for _, sz := range sizes {
			id := fmt.Sprintf("%s/%s/%s", expID, name, sizeLabel(sz))
			futs[name][sz] = sweep.Go(s, id, func(c *sweep.Ctx) imb.Result {
				mod := lineupFor(&spec, op)[mi]
				w := c.World(spec, "bycore", fullNP(spec))
				switch op {
				case "bcast":
					return hierknem.BenchBcast(w, mod, sz, imb.Opts{Iterations: cfg.iters, Warmup: 1, RotateRoot: true})
				case "reduce":
					return hierknem.BenchReduce(w, mod, sz, imb.Opts{Iterations: cfg.iters, Warmup: 1, RotateRoot: true})
				case "allgather":
					return hierknem.BenchAllgather(w, mod, sz, imb.Opts{Iterations: cfg.iters, Warmup: -1})
				default:
					panic("unknown op " + op)
				}
			})
		}
	}
	return func() {
		cells := map[string]map[int64]imb.Result{}
		for _, name := range names {
			cells[name] = map[int64]imb.Result{}
			for _, sz := range sizes {
				cells[name][sz] = futs[name][sz].Get()
			}
		}
		printMatrix(sizes, names, cells)
		ratioLine(names, sizes, cells)
	}
}

// fig6: impact of the process-core binding (by-core vs by-node), Parapluie.
func fig6(cfg config, s *sweep.Sweep, op string) func() {
	spec := clusterSpec("parapluie", cfg.nodes)
	sub := map[string]string{"bcast": "a", "allgather": "b"}[op]
	sizes := figSizesAllgather
	if op == "bcast" {
		sizes = []int64{16 << 10, 128 << 10, 1 << 20, 4 << 20}
	}
	// The paper trims Hierarch from this figure (both operations).
	var names []string
	for _, mod := range lineupFor(&spec, "allgather") {
		names = append(names, mod.Name())
	}
	bindings := []string{"bycore", "bynode"}

	futs := map[string]map[int64]*sweep.Future[imb.Result]{}
	for mi, name := range names {
		for _, binding := range bindings {
			row := name + "/" + binding
			futs[row] = map[int64]*sweep.Future[imb.Result]{}
			for _, sz := range sizes {
				id := fmt.Sprintf("fig6%s/%s/%s", sub, row, sizeLabel(sz))
				futs[row][sz] = sweep.Go(s, id, func(c *sweep.Ctx) imb.Result {
					mod := lineupFor(&spec, "allgather")[mi]
					w := c.World(spec, binding, fullNP(spec))
					if op == "bcast" {
						return hierknem.BenchBcast(w, mod, sz, imb.Opts{Iterations: cfg.iters, Warmup: 1, RotateRoot: true})
					}
					return hierknem.BenchAllgather(w, mod, sz, imb.Opts{Iterations: cfg.iters, Warmup: -1})
				})
			}
		}
	}
	return func() {
		header("Figure 6("+sub+") — Process placement impact on "+op,
			fmt.Sprintf("parapluie, %d nodes, %d processes, by-core vs by-node", cfg.nodes, fullNP(spec)))
		fmt.Printf("%-22s", "module/binding")
		for _, sz := range sizes {
			fmt.Printf("%12s", sizeLabel(sz))
		}
		fmt.Println("   (aggregate bandwidth, MB/s)")
		for _, name := range names {
			for _, binding := range bindings {
				row := name + "/" + binding
				fmt.Printf("%-22s", row)
				for _, sz := range sizes {
					fmt.Printf("%12.0f", futs[row][sz].Get().AggBW/1e6)
				}
				fmt.Println()
			}
		}
	}
}

// fig7: cores-per-node scalability of the 2MB Broadcast at fixed node count.
func fig7(cfg config, s *sweep.Sweep, cluster string) func() {
	spec := clusterSpec(cluster, cfg.nodes)
	sub := map[string]string{"stremi": "a", "parapluie": "b"}[cluster]
	ppns := []int{1, 2, 4, 8, 12, 16, 20, 24}
	var names []string
	for _, mod := range hierknem.Lineup(&spec) {
		names = append(names, mod.Name())
	}

	futs := map[string]map[int]*sweep.Future[imb.Result]{}
	for mi, name := range names {
		futs[name] = map[int]*sweep.Future[imb.Result]{}
		for _, ppn := range ppns {
			id := fmt.Sprintf("fig7%s/%s/ppn=%d", sub, name, ppn)
			futs[name][ppn] = sweep.Go(s, id, func(c *sweep.Ctx) imb.Result {
				mod := hierknem.Lineup(&spec)[mi]
				w := c.WorldPPN(spec, ppn)
				return hierknem.BenchBcast(w, mod, 2<<20, imb.Opts{Iterations: cfg.iters, Warmup: 1, RotateRoot: true})
			})
		}
	}
	return func() {
		header("Figure 7("+sub+") — Cores-per-node scalability, 2MB Bcast",
			fmt.Sprintf("%s, %d nodes, 1..24 processes/node", cluster, cfg.nodes))
		fmt.Printf("%-12s", "module\\ppn")
		for _, ppn := range ppns {
			fmt.Printf("%10d", ppn)
		}
		fmt.Println("   (aggregate bandwidth, MB/s)")
		for _, name := range names {
			fmt.Printf("%-12s", name)
			for _, ppn := range ppns {
				fmt.Printf("%10.0f", futs[name][ppn].Get().AggBW/1e6)
			}
			fmt.Println()
		}
	}
}
