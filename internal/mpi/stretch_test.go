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
	spec := toySpec(nodes, 1, cores)
	spec.EagerThreshold = eager
	m, err := topology.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByCoreBinding(m, nodes*cores)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(m, b, toyConf())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// nodeComm builds the communicator of node n's ranks, in world-rank order.
// The node must host at least one rank.
func nodeComm(w *World, n int) *Comm {
	var ranks []int
	for r, p := range w.procs {
		if p.core.NodeID == n {
			ranks = append(ranks, r)
		}
	}
	return w.newComm(ranks)
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
			if got := p.SmallIntraNode(nodeComm(w, 0), tc.n); got != tc.want {
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
		if p.SmallIntraNode(nodeComm(w, 0), 1) {
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
// model, which every recorded figure below the cutoff depends on: a
// BeginSmallStretch the selector refuses opens nothing, so a local reduction
// after it is a fabric flow and its EndSmallStretch charges nothing; inside
// an open stretch, a local reduction is a plain sleep at the unloaded rate
// and installs no fabric flow, a reduction at the cutoff panics, and so does
// a second BeginSmallStretch; closing it costs one network latency. An eager
// send's copy-in at the cutoff (eager messages that large exist only with
// an eager threshold above 4 KiB) is the transport's, not the stretch's: it
// stays a fabric flow there.
func TestSmallStretchCharges(t *testing.T) {
	w := stretchWorld(t, 1, 2, 8192)
	spec := w.Machine.Spec
	fills := func() uint64 { return w.Machine.Fab.Stats().Fills }
	reduce := func(p *Proc, n int) {
		p.ReduceLocal(buffer.OpSum, buffer.Int64, buffer.NewPhantom(int64(n)), buffer.NewPhantom(int64(n)))
	}
	var inside, closing, refusedClosing float64
	var insideFills, copyInFills, refusedFills, afterFills uint64
	var recovered, sendPanic, nestPanic any
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		if p.Rank() != 0 {
			p.Compute(1000) // the send's copy-in is over before this receive
			p.Recv(c, buffer.NewPhantom(smallCopyCutoff), 0, 5)
			return
		}
		p.BeginSmallStretch(c, smallCopyCutoff) // refused: at the cutoff
		before := fills()
		reduce(p, 80)
		refusedFills = fills() - before
		t0 := p.Now()
		p.EndSmallStretch()
		refusedClosing = p.Now() - t0

		p.BeginSmallStretch(c, 80)
		t0 = p.Now()
		before = fills()
		reduce(p, 80)
		inside = p.Now() - t0
		insideFills = fills() - before
		func() {
			defer func() { recovered = recover() }()
			reduce(p, smallCopyCutoff)
		}()
		func() {
			defer func() { sendPanic = recover() }()
			before := fills()
			p.Wait(p.Isend(c, buffer.NewPhantom(smallCopyCutoff), 1, 5))
			copyInFills = fills() - before
		}()
		func() {
			defer func() { nestPanic = recover() }()
			p.BeginSmallStretch(c, 80)
		}()
		t0 = p.Now()
		p.EndSmallStretch()
		closing = p.Now() - t0
		before = fills()
		reduce(p, 80)
		afterFills = fills() - before
	})
	if err != nil {
		t.Fatal(err)
	}
	if refusedFills == 0 {
		t.Error("reduction after a refused BeginSmallStretch installed no fabric flow")
	}
	if refusedClosing != 0 {
		t.Errorf("EndSmallStretch after a refused BeginSmallStretch charged %g, want 0", refusedClosing)
	}
	if want := 80 / spec.CoreCopyBandwidth; !almost(inside, want) {
		t.Errorf("80-byte reduction inside a stretch took %g, want %g", inside, want)
	}
	if insideFills != 0 {
		t.Errorf("reduction inside a stretch ran %d fabric fills, want 0", insideFills)
	}
	if recovered == nil {
		t.Error("a reduction at the cutoff inside a stretch did not panic")
	}
	if sendPanic != nil {
		t.Errorf("an eager send at the cutoff inside a stretch panicked: %v", sendPanic)
	} else if copyInFills == 0 {
		t.Error("an eager copy-in at the cutoff inside a stretch installed no fabric flow")
	}
	if nestPanic == nil {
		t.Error("a BeginSmallStretch inside an open stretch did not panic")
	}
	if !almost(closing, spec.NetLatency) {
		t.Errorf("EndSmallStretch charged %g, want one network latency %g", closing, spec.NetLatency)
	}
	if afterFills == 0 {
		t.Error("reduction after the stretch installed no fabric flow")
	}
}

// TestRankPanicReachesRunCaller: a rank body's panic is re-raised by the
// coroutine switch on the goroutine that called World.Run, carrying the
// rank's own panic value, and the ranks it leaves parked — in a receive, a
// barrier and a sleep — are unwound: no rank coroutine stays behind.
func TestRankPanicReachesRunCaller(t *testing.T) {
	boom := errors.New("rank 1 gives up")
	runRecovered := func(w *World, body func(p *Proc)) (got any) {
		defer func() { got = recover() }()
		err := w.Run(body)
		t.Errorf("World.Run returned %v, want the rank's panic", err)
		return nil
	}

	t.Run("parked ranks unwind", func(t *testing.T) {
		base := rankCoroutines()
		w := stretchWorld(t, 1, 4, 8)
		got := runRecovered(w, func(p *Proc) {
			c := w.WorldComm()
			switch p.Rank() {
			case 0:
				p.Recv(c, buffer.NewPhantom(8), 1, 0)
			case 1:
				p.Compute(2)
				panic(boom)
			case 2:
				c.Barrier(p)
			default:
				p.Compute(10)
			}
		})
		if got != boom {
			t.Fatalf("recovered %v, want %v", got, boom)
		}
		if n := rankCoroutines(); n != base {
			t.Errorf("%d rank coroutines after the panic, want %d", n, base)
		}
	})
}
