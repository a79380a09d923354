// DES hot-path benchmarks: the discrete-event engine and the MPI matching
// layer, measured on the workloads the fabric harness already established
// plus a matching-heavy fan-in stress. Beyond wall-clock ns/op they report:
//
//	events/sec — simulator events dispatched per wall-clock second
//	events/op  — events dispatched per simulated run (a determinism canary:
//	             this must not drift across engine refactors)
//
// allocs/op and B/op come from -benchmem. scripts/bench.sh runs these with
// -count and distills results/BENCH_des.json via cmd/benchjson, comparing
// against the checked-in pre-overhaul baseline (results/BASELINE_des.json);
// the acceptance bar is >=1.5x events/sec and >=2x fewer allocs/op on the
// Fig3a sweep.
package hierknem_test

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"
	"time"

	"hierknem"
	"hierknem/internal/buffer"
	"hierknem/internal/fabric"
	"hierknem/internal/imb"
	"hierknem/internal/mpi"
)

// benchDES runs one simulated workload per iteration and reports event
// throughput. The workload runs under the default (incremental) fabric
// allocator; setting HIERKNEM_DES_BASELINE=modeglobal pins the fabric to
// the full-recompute allocator instead, which is how the checked-in
// pre-overhaul baseline (results/BASELINE_des.json) was recorded: simulated
// runs are bit-identical either way (see internal/fabric's equivalence
// tests), so events/op still has to agree with the baseline exactly.
// benchGOGC is the pinned GC pacing for the DES suite. The event-pooled
// engine's live heap is so small that at the default GOGC=100 the
// runtime's 4 MB minimum heap goal forces a collection every few
// milliseconds, and mark-phase write barriers — not GC work itself —
// dominate the small-message hot loop. 400 moves both binaries well clear
// of the minimum-goal regime so the suite measures the engine, not the
// pacer. scripts/bench.sh exports GOGC=400 to match; the in-process pin
// makes a plain `go test -bench` agree with the harness.
const benchGOGC = 400

func benchDES(b *testing.B, mkWorld func() (*hierknem.World, error), run func(w *hierknem.World)) {
	b.ReportAllocs()
	gogc := benchGOGC
	if s := os.Getenv("GOGC"); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			gogc = v // explicit env overrides the pin, for pacer experiments
		}
	}
	prev := debug.SetGCPercent(gogc)
	b.Cleanup(func() { debug.SetGCPercent(prev) })
	modeGlobal := os.Getenv("HIERKNEM_DES_BASELINE") == "modeglobal"
	// Settle GC debt left by earlier benchmarks in the same process: without
	// the fence, an allocation-heavy predecessor donates its collection work
	// to this benchmark's timed region and skews events/sec downward.
	runtime.GC()
	var events uint64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		w, err := mkWorld()
		if err != nil {
			b.Fatal(err)
		}
		if modeGlobal {
			w.Machine.Fab.SetMode(fabric.ModeGlobal)
		}
		run(w)
		events += w.Machine.Eng.Processed()
	}
	elapsed := time.Since(start).Seconds()
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	if elapsed > 0 {
		b.ReportMetric(float64(events)/elapsed, "events/sec")
	}
}

// BenchmarkDESFig3aBcast768 is the acceptance workload: Figure 3a's
// broadcast on the 32-node, 768-process Stremi configuration, swept over
// message sizes. Collective inner loops here are dominated by zero-sleeps,
// wakes and eager completions — the events the engine's now-bucket and
// event pool target.
func BenchmarkDESFig3aBcast768(b *testing.B) {
	spec := hierknem.Stremi(32)
	mod := hierknem.ForCluster(&spec)
	// Cache the topology map across iterations: hierarchy construction is
	// world-setup work, and leaving it in the loop would let its map-build
	// cost mask the event-dispatch and matching costs being measured.
	mod.Opt.CacheTopology = true
	np := spec.Nodes * spec.CoresPerNode()
	for _, size := range []int64{64 << 10, 1 << 20} {
		size := size
		b.Run(fmt.Sprintf("size=%dKB", size>>10), func(b *testing.B) {
			benchDES(b,
				func() (*hierknem.World, error) { return hierknem.NewWorld(spec, "bycore", np) },
				func(w *hierknem.World) {
					// Several measured iterations per world: event dispatch,
					// not topology construction, is what this benchmark
					// weighs.
					hierknem.BenchBcast(w, mod, size, imb.Opts{Iterations: 4, Warmup: 1})
				})
		})
	}
}

// BenchmarkDESFanInGather stresses the p2p matching layer: every rank of a
// 192-process job streams eager messages at rank 0 across several rounds.
// Phase one preposts all receives (deep posted-queue scans at every send),
// phase two sends before the root posts (deep unexpected-queue scans at
// every receive). Before the matching index this cost was quadratic in the
// fan-in depth.
func BenchmarkDESFanInGather(b *testing.B) {
	spec := hierknem.Stremi(8)
	np := spec.Nodes * spec.CoresPerNode()
	const rounds = 8
	const msgSize = 512 // eager everywhere: matching cost, not transfer cost
	b.Run(fmt.Sprintf("senders=%d/rounds=%d", np-1, rounds), func(b *testing.B) {
		benchDES(b,
			func() (*hierknem.World, error) { return hierknem.NewWorld(spec, "bycore", np) },
			func(w *hierknem.World) {
				runFanIn(b, w, rounds, msgSize)
			})
	})
}

// runFanIn drives the two fan-in phases on w.
func runFanIn(b *testing.B, w *hierknem.World, rounds int, msgSize int64) {
	np := w.Size()
	err := w.Run(func(p *hierknem.Proc) {
		c := w.WorldComm()
		me := c.Rank(p)

		// Phase 1: preposted. Root posts every (src, round) receive up
		// front, then senders fire; each arriving envelope scans the
		// posted queue for its match.
		if me == 0 {
			reqs := make([]*mpi.Request, 0, (np-1)*rounds)
			for round := 0; round < rounds; round++ {
				for src := 1; src < np; src++ {
					buf := buffer.NewPhantom(msgSize)
					reqs = append(reqs, p.Irecv(c, buf, src, round))
				}
			}
			p.WaitAll(reqs...)
		} else {
			for round := 0; round < rounds; round++ {
				p.Send(c, buffer.NewPhantom(msgSize), 0, round)
			}
		}
		c.Barrier(p)

		// Phase 2: unexpected. Senders flood first; the root sits out a
		// compute delay, then posts receives that each scan the
		// unexpected queue.
		if me == 0 {
			p.Compute(1e-3)
			reqs := make([]*mpi.Request, 0, (np-1)*rounds)
			for round := 0; round < rounds; round++ {
				for src := 1; src < np; src++ {
					buf := buffer.NewPhantom(msgSize)
					reqs = append(reqs, p.Irecv(c, buf, src, rounds+round))
				}
			}
			p.WaitAll(reqs...)
		} else {
			reqs := make([]*mpi.Request, 0, rounds)
			for round := 0; round < rounds; round++ {
				reqs = append(reqs, p.Isend(c, buffer.NewPhantom(msgSize), 0, rounds+round))
			}
			p.WaitAll(reqs...)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
