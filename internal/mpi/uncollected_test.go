package mpi

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hierknem/internal/buffer"
)

// TestUncollectedRequestsReported: a run that completes while a rank body
// returned holding requests it never waited on is an *UncollectedError
// counting them per rank, whatever the request's fate — never matched,
// completed, or overwritten by a later request before any Wait.
func TestUncollectedRequestsReported(t *testing.T) {
	for _, tc := range []struct {
		name    string
		body    func(p *Proc, c *Comm)
		open    map[int]int
		pending string // a line the report must hold; "" for an empty report
	}{
		{"every request collected", func(p *Proc, c *Comm) {
			p.SendRecv(c, buffer.NewPhantom(64), 1-p.Rank(), 0, buffer.NewPhantom(64), 1-p.Rank(), 0)
		}, nil, ""},
		{"unmatched Irecv", func(p *Proc, c *Comm) {
			if p.Rank() == 1 {
				p.Irecv(c, buffer.NewPhantom(8), AnySource, 99)
			}
		}, map[int]int{1: 1}, "rank1: recv pending ctx=0 src=any tag=99"},
		{"unreceived Isend", func(p *Proc, c *Comm) {
			if p.Rank() == 0 {
				p.Isend(c, buffer.NewPhantom(4), 1, 7)
			}
		}, map[int]int{0: 1}, "rank1: unmatched send from rank0 ctx=0 tag=7 size=4"},
		{"matched Isend never waited", func(p *Proc, c *Comm) {
			if p.Rank() == 0 {
				p.Isend(c, buffer.NewPhantom(64), 1, 0)
				p.Isend(c, buffer.NewPhantom(4), 1, 1)
			} else {
				p.Recv(c, buffer.NewPhantom(64), 0, 0)
				p.Recv(c, buffer.NewPhantom(4), 0, 1)
			}
		}, map[int]int{0: 2}, ""},
		{"overwritten before Wait", func(p *Proc, c *Comm) {
			peer := 1 - p.Rank()
			r := p.Irecv(c, buffer.NewPhantom(64), peer, 0)
			r = p.Isend(c, buffer.NewPhantom(64), peer, 0)
			p.Wait(r)
		}, map[int]int{0: 1, 1: 1}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newToyWorld(t, 2, 1, 1, 2)
			err := w.Run(func(p *Proc) { tc.body(p, w.WorldComm()) })
			if tc.open == nil {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			var ue *UncollectedError
			if !errors.As(err, &ue) {
				t.Fatalf("error is %T, want *UncollectedError: %v", err, err)
			}
			if fmt.Sprint(ue.Open) != fmt.Sprint(tc.open) {
				t.Errorf("Open = %v, want %v", ue.Open, tc.open)
			}
			if tc.pending == "" && ue.Report != "" || !strings.Contains(ue.Report, tc.pending) {
				t.Errorf("report = %q, want one holding %q", ue.Report, tc.pending)
			}
		})
	}
}

// TestWaitOnAnotherRanksRequestPanics: a request has exactly one waiter,
// the rank that issued it.
func TestWaitOnAnotherRanksRequestPanics(t *testing.T) {
	w := newToyWorld(t, 1, 1, 2, 2)
	var shared *Request
	var got any
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		if p.Rank() == 0 {
			shared = p.Isend(c, buffer.NewPhantom(4), 1, 0)
			c.Barrier(p)
			p.Wait(shared)
			return
		}
		p.Recv(c, buffer.NewPhantom(4), 0, 0)
		c.Barrier(p)
		func() {
			defer func() { got = recover() }()
			p.Wait(shared)
		}()
	})
	if err != nil {
		t.Fatal(err)
	}
	if msg, _ := got.(string); msg != "mpi: rank1 waits on a request issued by rank0" {
		t.Fatalf("Wait from another rank recovered %v, want the one-waiter panic", got)
	}
}

// TestUncollectedRunResetReplaysBitIdentical: a world whose Run returned an
// *UncollectedError — records never released, receives still posted,
// envelopes still unexpected — replays a clean program after Reset
// exactly as a fresh world does, to the event count.
func TestUncollectedRunResetReplaysBitIdentical(t *testing.T) {
	clean := func(w *World) string {
		t.Helper()
		ends := make([]float64, w.Size())
		err := w.Run(func(p *Proc) {
			c := w.WorldComm()
			np := w.Size()
			for _, n := range []int64{4, 64} {
				right, left := (p.Rank()+1)%np, (p.Rank()+np-1)%np
				p.SendRecv(c, buffer.NewPhantom(n), right, 0, buffer.NewPhantom(n), left, 0)
			}
			ends[p.Rank()] = p.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x events=%d", ends, w.Machine.Eng.Processed())
	}
	want := clean(newToyWorld(t, 2, 1, 2, 4))

	w := newToyWorld(t, 2, 1, 2, 4)
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		np := w.Size()
		p.Isend(c, buffer.NewPhantom(64), (p.Rank()+1)%np, 1)
		p.Recv(c, buffer.NewPhantom(64), (p.Rank()+np-1)%np, 1)
		p.Irecv(c, buffer.NewPhantom(8), AnySource, 99)
		p.Isend(c, buffer.NewPhantom(4), (p.Rank()+2)%np, 98)
	})
	var ue *UncollectedError
	if !errors.As(err, &ue) || len(ue.Open) != 4 || ue.Open[0] != 3 {
		t.Fatalf("leaky run: err = %v, want every rank holding 3 requests", err)
	}
	w.Reset()
	if got := clean(w); got != want {
		t.Fatalf("replay after an uncollected run differs from a fresh world:\n got %s\nwant %s", got, want)
	}
}
