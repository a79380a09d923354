package mpi

import (
	"fmt"
	"testing"
)

// rankPanic returns the message c.Rank(p) panics with, or "" if it returns.
func rankPanic(c *Comm, p *Proc) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	c.Rank(p)
	return ""
}

// A communicator of world ranks {3, 5, 9} out of 12, in ascending and in
// shuffled comm-rank order: the rank index is searched by world rank, so
// non-members below, between and above the members must miss, members must
// resolve to their comm rank whatever the order, and Seq counts per comm
// rank.
func TestSparseCommIndex(t *testing.T) {
	w := newToyWorld(t, 3, 1, 4, 12)
	for _, ranks := range [][]int{{3, 5, 9}, {9, 3, 5}} {
		c := w.newComm(ranks)
		for want, wr := range ranks {
			if c.lookup(wr) != want || c.Rank(w.procs[wr]) != want {
				t.Errorf("%v: world rank %d: lookup %d Rank %d, want comm rank %d", ranks, wr, c.lookup(wr), c.Rank(w.procs[wr]), want)
			}
		}
		for _, wr := range []int{0, 2, 4, 6, 8, 10, 11} {
			if c.lookup(wr) >= 0 {
				t.Errorf("%v: world rank %d reported as a member", ranks, wr)
			}
			if msg, want := rankPanic(c, w.procs[wr]), fmt.Sprintf("mpi: world rank %d not in communicator", wr); msg != want {
				t.Errorf("%v: Rank(world rank %d) panicked with %q, want %q", ranks, wr, msg, want)
			}
		}
		p0, p1, p2 := w.procs[ranks[0]], w.procs[ranks[1]], w.procs[ranks[2]]
		seqs := []int{c.Seq(p1), c.Seq(p1), c.Seq(p0), c.Seq(p1), c.Seq(p2)}
		if want := []int{0, 1, 0, 2, 0}; fmt.Sprint(seqs) != fmt.Sprint(want) {
			t.Errorf("%v: Seq sequence %v, want %v (one counter per comm rank)", ranks, seqs, want)
		}
	}
}

// Back-to-back intra-node barriers on a warm communicator reuse its waiter
// array: the woken ranks re-enter at once, and Wake only schedules, so the
// last arriver has emptied the list before any of them appends again. Two
// hundred barriers then cost no allocation beyond what the run itself does.
func TestWarmBarrierAllocatesNothing(t *testing.T) {
	w := newToyWorld(t, 1, 1, 4, 4)
	c := w.WorldComm()
	barriers := func(n int) func() {
		return func() {
			err := w.Run(func(p *Proc) {
				for i := 0; i < n; i++ {
					c.Barrier(p)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	barriers(200)() // warm the waiter array and the engine's event pool
	base := testing.AllocsPerRun(5, barriers(0))
	if got := testing.AllocsPerRun(5, barriers(200)); got != base {
		t.Errorf("a run of 200 barriers allocates %.0f times, a run of none %.0f", got, base)
	}
}
