package mpi

// Stall autopsy fixtures: a drained queue with outstanding operations must
// produce a StallError naming the pending receives and the unmatched send,
// and ranks parked outside point-to-point must still get a report.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"hierknem/internal/buffer"
	"hierknem/internal/des"
)

// TestStallAutopsyNamesPendingOps: a drained queue surfaces as a StallError
// whose report lists the pending receives (rank, tag, posting time) by
// posting time — two receives that share a hash chain, one of another chain
// posted between them, then the blocking receive — and the unmatched send
// sitting in the unexpected queue.
func TestStallAutopsyNamesPendingOps(t *testing.T) {
	w := newToyWorld(t, 1, 1, 2, 2)
	// Two tags whose keys land in one bucket of a first-use index.
	ctx := w.WorldComm().ctx
	const tagA = 100
	tagB := tagA + 1
	for bucketOf(ctx, 1, tagB, minBuckets) != bucketOf(ctx, 1, tagA, minBuckets) {
		tagB++
	}
	// And one of another bucket.
	tagC := tagB + 1
	for bucketOf(ctx, 1, tagC, minBuckets) == bucketOf(ctx, 1, tagA, minBuckets) {
		tagC++
	}
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		if p.Rank() == 0 {
			first := p.Irecv(c, buffer.NewReal(make([]byte, 4)), 1, tagB)
			p.Compute(1e-6)
			between := p.Irecv(c, buffer.NewReal(make([]byte, 4)), 1, tagC)
			p.Compute(1e-6)
			second := p.Irecv(c, buffer.NewReal(make([]byte, 4)), 1, tagA)
			p.Compute(1e-6)
			p.Recv(c, buffer.NewReal(make([]byte, 4)), 1, 42) // never matched
			p.WaitAll(first, between, second)
		} else {
			p.Send(c, buffer.NewReal([]byte{1, 2, 3}), 0, 7) // eager: completes, never received
		}
	})
	if err == nil {
		t.Fatal("expected a stall error")
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *StallError: %v", err, err)
	}
	var dl *des.DeadlockError
	if !errors.As(err, &dl) {
		t.Error("StallError must unwrap to *des.DeadlockError")
	}
	msg := err.Error()
	at := 0
	for _, want := range []string{
		"stall autopsy:",
		fmt.Sprintf("rank0: recv pending ctx=%d src=rank1 tag=%d posted at t=", ctx, tagB),
		fmt.Sprintf("rank0: recv pending ctx=%d src=rank1 tag=%d posted at t=", ctx, tagC),
		fmt.Sprintf("rank0: recv pending ctx=%d src=rank1 tag=%d posted at t=", ctx, tagA),
		fmt.Sprintf("rank0: recv pending ctx=%d src=rank1 tag=42 posted at t=", ctx),
		"unmatched send from rank1",
		"tag=7",
	} {
		i := strings.Index(msg[at:], want)
		if i < 0 {
			t.Fatalf("stall report lacks %q after offset %d (postings must list by posting time):\n%s", want, at, msg)
		}
		at += i + len(want)
	}
}

// TestStallAutopsyEmptyCase: ranks parked outside point-to-point still get
// a report, with the explicit no-pending note.
func TestStallAutopsyEmptyCase(t *testing.T) {
	w := newToyWorld(t, 1, 1, 2, 2)
	err := w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.DES().Park() // parked forever, no p2p posted
		}
	})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *StallError: %v", err, err)
	}
	if !strings.Contains(se.Report, "no pending point-to-point operations") {
		t.Errorf("empty-case report = %q", se.Report)
	}
}

// rankCoroutines counts the goroutines inside a des process body: rank
// coroutines, parked or running. Idle coroutines, which des keeps for the
// next run, and the test's own goroutines do not count.
func rankCoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "hierknem/internal/des.(*Proc).run(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestStallReleasesRanks: a stalled run leaves no rank coroutine parked,
// and its world can be Reset and run again: a Bcast after the Reset
// dispatches the same events and ends at the same time as on a fresh world.
func TestStallReleasesRanks(t *testing.T) {
	bcast := func(w *World) (uint64, float64) {
		t.Helper()
		err := w.Run(func(p *Proc) {
			c, buf := w.WorldComm(), buffer.NewPhantom(64<<10) // rendezvous: fabric flows
			if p.Rank() != 0 {
				p.Recv(c, buf, 0, 1)
				return
			}
			for r := 1; r < c.Size(); r++ {
				p.Wait(p.Isend(c, buf, r, 1))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Machine.Eng.Processed(), w.Now()
	}
	base := rankCoroutines()
	w := newToyWorld(t, 2, 1, 4, 8)
	err := w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Recv(w.WorldComm(), buffer.NewPhantom(8), 1, 42) // never matched
		}
	})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *StallError: %v", err, err)
	}
	if n := rankCoroutines(); n != base {
		t.Errorf("%d rank coroutines after the stall, want %d", n, base)
	}
	w.Reset()
	events, end := bcast(w)
	wantEvents, wantEnd := bcast(newToyWorld(t, 2, 1, 4, 8))
	if events != wantEvents || end != wantEnd {
		t.Errorf("Bcast after the stall and Reset: %d events, end %g; on a fresh world: %d events, end %g",
			events, end, wantEvents, wantEnd)
	}
}
