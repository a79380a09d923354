package mpi

import (
	"errors"
	"fmt"
	"testing"

	"hierknem/internal/des"
	"hierknem/internal/topology"
)

// confineWorld builds a toy world with cores ranks per node over nodes
// nodes and an explicit eager threshold, for exercising the bracket
// placement rule in isolation.
func confineWorld(t *testing.T, nodes, cores int, eager int64) *World {
	t.Helper()
	m, err := topology.Build(toySpec(nodes, 1, cores))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByCoreBinding(m, nodes*cores)
	if err != nil {
		t.Fatal(err)
	}
	conf := toyConf()
	conf.EagerThreshold = eager
	w, err := NewWorld(m, b, conf)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestPhaseEligibleBounds is the boundary-value table for PhaseEligible:
// both size guards are strict (`<`), so a message exactly at the eager
// threshold or exactly at the fabric-bypass cutoff is already ineligible —
// at those sizes the transport installs rendezvous or fabric state, which
// is global-domain. Singleton and cross-node communicators are excluded
// regardless of size. The thresholds are picked to isolate each bound:
// with eager at 8192 only the cutoff can exclude, with eager at 2048 only
// the threshold can.
func TestPhaseEligibleBounds(t *testing.T) {
	cases := []struct {
		name  string
		eager int64
		n     int64
		want  bool
	}{
		// eager 8192 > cutoff: the cutoff is the binding bound.
		{"under both", 8192, smallCopyCutoff - 1, true},
		{"at cutoff", 8192, smallCopyCutoff, false},
		{"over cutoff", 8192, smallCopyCutoff + 1, false},
		// eager 2048 < cutoff: the threshold is the binding bound.
		{"under eager", 2048, 2047, true},
		{"at eager", 2048, 2048, false},
		{"between eager and cutoff", 2048, smallCopyCutoff - 1, false},
		// eager == cutoff (the shipped default): both bounds coincide.
		{"default under", smallCopyCutoff, smallCopyCutoff - 1, true},
		{"default at", smallCopyCutoff, smallCopyCutoff, false},
		// tiny messages are always in.
		{"zero bytes", 8192, 0, true},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/n=%d", tc.name, tc.n), func(t *testing.T) {
			w := confineWorld(t, 1, 2, tc.eager)
			p := w.Proc(0)
			if got := p.PhaseEligible(p.NodeComm(), tc.n); got != tc.want {
				t.Errorf("PhaseEligible(node comm, %d) with eager %d = %v, want %v",
					tc.n, tc.eager, got, tc.want)
			}
		})
	}

	t.Run("singleton comm", func(t *testing.T) {
		// One rank per node: the node comm is a singleton — nothing to
		// confine, so even a 1-byte message is ineligible.
		w := confineWorld(t, 2, 1, 8192)
		p := w.Proc(0)
		if p.PhaseEligible(p.NodeComm(), 1) {
			t.Error("PhaseEligible(singleton comm, 1) = true, want false")
		}
	})

	t.Run("cross-node comm", func(t *testing.T) {
		w := confineWorld(t, 2, 2, 8192)
		p := w.Proc(0)
		if p.PhaseEligible(w.WorldComm(), 1) {
			t.Error("PhaseEligible(multi-node comm, 1) = true, want false")
		}
	})
}

// TestRankPanicReachesRunCaller: a rank body's panic is re-raised by the
// coroutine switch on the goroutine that called World.Run, carrying the
// rank's own panic value — from the serial driver directly, from a phase
// worker through the phase join.
func TestRankPanicReachesRunCaller(t *testing.T) {
	boom := errors.New("rank 1 gives up")
	runRecovered := func(w *World, body func(p *Proc)) (got any) {
		defer func() { got = recover() }()
		err := w.Run(body)
		t.Errorf("World.Run returned %v, want the rank's panic", err)
		return nil
	}

	t.Run("serial driver", func(t *testing.T) {
		w := confineWorld(t, 1, 4, 8)
		got := runRecovered(w, func(p *Proc) {
			p.Compute(float64(p.Rank() + 1))
			if p.Rank() == 1 {
				panic(boom)
			}
		})
		if got != boom {
			t.Fatalf("recovered %v, want %v", got, boom)
		}
	})

	t.Run("phase worker", func(t *testing.T) {
		w := confineWorld(t, 2, 2, 8192)
		w.SetEngineMode(des.ModeParallel)
		w.SetEngineWorkers(2)
		inPhase := false
		got := runRecovered(w, func(p *Proc) {
			p.EnterNodePhase()
			// Compute stretches carry every rank across window boundaries
			// with nothing but confined events queued, so windows phase.
			for r := 0; r < 8; r++ {
				p.Compute(0.4 * w.Machine.Spec.NetLatency)
				p.NodeComm().Barrier(p)
				if p.Rank() == 1 && w.Machine.Eng.InWorkerPhase() {
					inPhase = true
					panic(boom)
				}
			}
			p.ExitNodePhase()
		})
		if !inPhase {
			t.Fatal("rank 1 never ran inside a worker phase; the test exercised nothing")
		}
		if got != boom {
			t.Fatalf("recovered %v, want %v", got, boom)
		}
	})
}
