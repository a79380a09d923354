package mpi

import (
	"errors"
	"fmt"
	"testing"

	"hierknem/internal/buffer"
	"hierknem/internal/topology"
)

// stretchWorld builds a toy world with cores ranks per node over nodes
// nodes and an explicit eager threshold, for exercising the small-stretch
// selector in isolation.
func stretchWorld(t *testing.T, nodes, cores int, eager int64) *World {
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

// TestSmallIntraNodeBounds is the boundary-value table for SmallIntraNode:
// both size bounds are strict (`<`), so a message exactly at the eager
// threshold or exactly at the fabric-bypass cutoff is already out — at those
// sizes the transport installs rendezvous or fabric state. Singleton and
// cross-node communicators are excluded regardless of size. The thresholds are picked to isolate each bound:
// with eager at 8192 only the cutoff can exclude, with eager at 2048 only
// the threshold can.
func TestSmallIntraNodeBounds(t *testing.T) {
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
			w := stretchWorld(t, 1, 2, tc.eager)
			p := w.Proc(0)
			if got := p.SmallIntraNode(p.NodeComm(), tc.n); got != tc.want {
				t.Errorf("SmallIntraNode(node comm, %d) with eager %d = %v, want %v",
					tc.n, tc.eager, got, tc.want)
			}
		})
	}

	t.Run("singleton comm", func(t *testing.T) {
		// One rank per node: the node comm is a singleton — there is no
		// stretch, so even a 1-byte message is out.
		w := stretchWorld(t, 2, 1, 8192)
		p := w.Proc(0)
		if p.SmallIntraNode(p.NodeComm(), 1) {
			t.Error("SmallIntraNode(singleton comm, 1) = true, want false")
		}
	})

	t.Run("cross-node comm", func(t *testing.T) {
		w := stretchWorld(t, 2, 2, 8192)
		p := w.Proc(0)
		if p.SmallIntraNode(w.WorldComm(), 1) {
			t.Error("SmallIntraNode(multi-node comm, 1) = true, want false")
		}
	})
}

// TestSmallStretchCharges pins what a small stretch does to the timing
// model, which every recorded figure below the cutoff depends on: inside
// one, a local reduction is a plain sleep at the unloaded rate and installs
// no fabric flow; closing it costs one network latency; and a reduction at
// the cutoff inside one panics.
func TestSmallStretchCharges(t *testing.T) {
	w := stretchWorld(t, 1, 2, 8192)
	spec := w.Machine.Spec
	reduce := func(p *Proc, n int) {
		p.ReduceLocal(buffer.OpSum, buffer.Int64, buffer.NewPhantom(int64(n)), buffer.NewPhantom(int64(n)))
	}
	var inside, closing float64
	var fills uint64
	var recovered any
	err := w.Run(func(p *Proc) {
		if p.Rank() != 0 {
			return
		}
		p.BeginSmallStretch()
		t0 := p.Now()
		reduce(p, 80)
		inside = p.Now() - t0
		fills = w.Machine.Fab.Stats().Fills
		func() {
			defer func() { recovered = recover() }()
			reduce(p, smallCopyCutoff)
		}()
		t0 = p.Now()
		p.EndSmallStretch()
		closing = p.Now() - t0
		reduce(p, 80)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 80 / w.Conf.ReduceBandwidth; !almost(inside, want) {
		t.Errorf("80-byte reduction inside a stretch took %g, want %g", inside, want)
	}
	if fills != 0 {
		t.Errorf("reduction inside a stretch ran %d fabric fills, want 0", fills)
	}
	if recovered == nil {
		t.Error("a reduction at the cutoff inside a stretch did not panic")
	}
	if !almost(closing, spec.NetLatency) {
		t.Errorf("EndSmallStretch charged %g, want one network latency %g", closing, spec.NetLatency)
	}
	if w.Machine.Fab.Stats().Fills == 0 {
		t.Error("reduction after the stretch installed no fabric flow")
	}
}

// TestRankPanicReachesRunCaller: a rank body's panic is re-raised by the
// coroutine switch on the goroutine that called World.Run, carrying the
// rank's own panic value.
func TestRankPanicReachesRunCaller(t *testing.T) {
	boom := errors.New("rank 1 gives up")
	runRecovered := func(w *World, body func(p *Proc)) (got any) {
		defer func() { got = recover() }()
		err := w.Run(body)
		t.Errorf("World.Run returned %v, want the rank's panic", err)
		return nil
	}

	t.Run("serial driver", func(t *testing.T) {
		w := stretchWorld(t, 1, 4, 8)
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
}
