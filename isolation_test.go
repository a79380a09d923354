// Run isolation: a simulation must behave bit-identically no matter how
// many sibling simulations run on other goroutines and no matter whether
// its world is freshly built or reused through World.Reset. These are the
// invariants the parallel sweep runner (internal/sweep) rests on; under
// `go test -race` the parallel test doubles as a data-race probe over the
// whole engine/mpi/fabric stack.
package hierknem_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hierknem"
	"hierknem/internal/buffer"
	"hierknem/internal/coll"
	"hierknem/internal/mpi"
)

// hexTime renders a virtual time exactly (hex mantissa), so string equality
// of logs is bit equality of the times.
func hexTime(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

const isoPPN = 4

func isoSpec() hierknem.Spec { return hierknem.Stremi(3) }

func isoWorld(t testing.TB) *hierknem.World {
	t.Helper()
	w, err := hierknem.NewWorldPPN(isoSpec(), isoPPN)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// runLogged executes a bcast + barrier + reduce program on w and returns
// the event log: each rank's hex-exact completion instant of both phases,
// plus the engine's final clock and processed-event count. Appends happen
// from rank bodies of one engine — cooperatively scheduled, never
// concurrent.
func runLogged(t testing.TB, w *hierknem.World) []string {
	t.Helper()
	spec := isoSpec()
	mod := hierknem.ForCluster(&spec)
	np := w.Size()
	bufs := make([]*buffer.Buffer, np)
	sbufs := make([]*buffer.Buffer, np)
	rbufs := make([]*buffer.Buffer, np)
	for i := range bufs {
		bufs[i] = buffer.NewPhantom(96 << 10)
		sbufs[i] = buffer.NewPhantom(32 << 10)
		rbufs[i] = buffer.NewPhantom(32 << 10)
	}
	log := make([]string, 0, 2*np+1)
	err := w.Run(func(p *mpi.Proc) {
		c := w.WorldComm()
		me := c.Rank(p)
		mod.Bcast(p, c, bufs[me], 0)
		log = append(log, fmt.Sprintf("bcast r%d %s", me, hexTime(p.Now())))
		c.Barrier(p)
		a := coll.ReduceArgs{Op: buffer.OpSum, Dtype: buffer.Float64}
		mod.Reduce(p, c, a, sbufs[me], rbufs[me], 0)
		log = append(log, fmt.Sprintf("reduce r%d %s", me, hexTime(p.Now())))
	})
	if err != nil {
		t.Fatal(err)
	}
	log = append(log, fmt.Sprintf("final %s %d", hexTime(w.Now()), w.Machine.Eng.Processed()))
	return log
}

func diffLogs(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: log length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: log entry %d differs:\n  want %s\n  got  %s", label, i, want[i], got[i])
		}
	}
}

// TestParallelRunsBitIdentical runs the same simulation on 8 concurrent
// goroutines — each with its own world, as sweep workers do — and requires
// every event log to match the serial reference bit for bit.
func TestParallelRunsBitIdentical(t *testing.T) {
	want := runLogged(t, isoWorld(t))

	const runs = 8
	logs := make([][]string, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			logs[i] = runLogged(t, isoWorld(t))
		}(i)
	}
	wg.Wait()
	for i, got := range logs {
		diffLogs(t, fmt.Sprintf("parallel run %d", i), want, got)
	}
}

// TestWorldResetReplaysBitIdentical reruns the program on a Reset world,
// after itself and after a different program, and requires the hex-exact
// log of the fresh run — the invariant that lets sweep workers substitute a
// reused arena for a fresh build.
func TestWorldResetReplaysBitIdentical(t *testing.T) {
	w := isoWorld(t)
	want := runLogged(t, w)
	for i := 0; i < 3; i++ {
		w.Reset()
		diffLogs(t, fmt.Sprintf("reset replay %d", i), want, runLogged(t, w))
	}

	// A world that ran a different program first — real 2 KB buffers, a
	// non-zero root — must forget it too. The log's final line carries
	// Engine.Processed(), so this pins the event count as well as every
	// completion instant.
	w = isoWorld(t)
	spec := isoSpec()
	mod := hierknem.ForCluster(&spec)
	err := w.Run(func(p *mpi.Proc) {
		mod.Bcast(p, w.WorldComm(), buffer.NewReal(make([]byte, 2<<10)), 5)
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Reset()
	diffLogs(t, "reset after a different program", want, runLogged(t, w))
}

// TestWorldResetAllocsLessThanRebuild pins the point of reuse: a Reset+run
// must allocate strictly less than a rebuild+run, because the engine event
// pool, fabric flow pool, matching bucket arrays and envelope pools all stay warm.
func TestWorldResetAllocsLessThanRebuild(t *testing.T) {
	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	// Warm both paths once so one-time lazy initialization is excluded.
	w := isoWorld(t)
	runLogged(t, w)
	w.Reset()
	runLogged(t, w)

	start := mallocs()
	fresh := isoWorld(t)
	runLogged(t, fresh)
	rebuild := mallocs() - start

	start = mallocs()
	w.Reset()
	runLogged(t, w)
	reused := mallocs() - start

	if reused >= rebuild {
		t.Fatalf("reset+run allocated %d objects, rebuild+run %d; reuse must be strictly cheaper", reused, rebuild)
	}
	t.Logf("allocs: rebuild+run %d, reset+run %d (%.1fx fewer)", rebuild, reused, float64(rebuild)/float64(reused))
}

// TestWorldResetAfterRankPanic: a rank that panics while a 1 MB message is
// on the wire leaves its world reusable. The run drops its queued events
// and the fabric's flows, so after Reset a Bcast moves the same bytes and
// ends at the same time as on a fresh world.
func TestWorldResetAfterRankPanic(t *testing.T) {
	spec := hierknem.Parapluie(2)
	mod := hierknem.ForCluster(&spec)
	fresh := func() *hierknem.World {
		w, err := hierknem.NewWorld(spec, "bycore", spec.TotalCores())
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	bcast := func(w *hierknem.World) ([][]byte, float64) {
		out := make([][]byte, w.Size())
		err := w.Run(func(p *mpi.Proc) {
			buf := buffer.NewReal(make([]byte, 300<<10))
			if p.Rank() == 3 {
				for i := range buf.Data() {
					buf.Data()[i] = byte(i * 7)
				}
			}
			mod.Bcast(p, w.WorldComm(), buf, 3)
			out[p.Rank()] = buf.Data()
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, w.Now()
	}

	w := fresh()
	err := runRecovering(w, func(p *mpi.Proc) {
		c, buf := w.WorldComm(), buffer.NewPhantom(1<<20)
		switch p.Rank() {
		case 0:
			p.Wait(p.Isend(c, buf, 30, 1))
		case 30:
			p.Recv(c, buf, 0, 1)
		case 5:
			p.Compute(50e-6)
			panic("rank 5 gives up")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "rank 5 gives up") {
		t.Fatalf("Run returned %v, want rank 5's panic", err)
	}
	if n := w.Machine.Eng.Pending(); n != 0 {
		t.Errorf("%d events queued after the panic, want none", n)
	}
	w.Reset()
	got, end := bcast(w)
	want, wantEnd := bcast(fresh())
	for r := range want {
		if !bytes.Equal(got[r], want[r]) {
			t.Fatalf("after the panic and Reset rank %d's bytes differ from a fresh world's", r)
		}
	}
	if end != wantEnd {
		t.Errorf("after the panic and Reset the Bcast ends at %g; on a fresh world at %g", end, wantEnd)
	}
}
