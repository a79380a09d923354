package mpi

import (
	"testing"

	"hierknem/internal/topology"
)

func bbWorld(t *testing.T) *World {
	t.Helper()
	m, err := topology.Build(toySpec(1, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := topology.ByCore(m, 4)
	w, err := NewWorld(m, b, toyConf())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBBPostThenWait(t *testing.T) {
	w := bbWorld(t)
	var got any
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		if p.Rank() == 0 {
			c.BBPost(BBKey{Op: "k"}, 42)
		} else if p.Rank() == 1 {
			got = c.BBWait(p, BBKey{Op: "k"})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestBBWaitBlocksUntilPost(t *testing.T) {
	w := bbWorld(t)
	var gotAt float64
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		switch p.Rank() {
		case 0:
			p.Compute(5)
			c.BBPost(BBKey{Op: "late"}, "v")
		case 1:
			_ = c.BBWait(p, BBKey{Op: "late"})
			gotAt = p.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotAt != 5 {
		t.Fatalf("waiter resumed at %g, want 5", gotAt)
	}
}

func TestBBMultipleWaiters(t *testing.T) {
	w := bbWorld(t)
	count := 0
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		if p.Rank() == 0 {
			p.Compute(1)
			c.BBPost(BBKey{Op: "x"}, 7)
			return
		}
		if c.BBWait(p, BBKey{Op: "x"}) == 7 {
			count++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestBBClearRemovesKey(t *testing.T) {
	w := bbWorld(t)
	var resumed bool
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		switch p.Rank() {
		case 0:
			c.BBPost(BBKey{Op: "tmp"}, 1)
			c.BBClear(BBKey{Op: "tmp"})
			// Re-post under the same key: a fresh value.
			p.Compute(2)
			c.BBPost(BBKey{Op: "tmp"}, 2)
		case 1:
			p.Compute(1) // after the clear
			if c.BBWait(p, BBKey{Op: "tmp"}) == 2 {
				resumed = true
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Fatal("waiter did not see the re-posted value")
	}
}

// Slots whose keys differ only in Op, Seq or Rank are independent: posting
// or clearing one leaves the others' values and parked waiters alone.
func TestBBKeySlotsIndependent(t *testing.T) {
	w := bbWorld(t)
	base := BBKey{Op: "a", Seq: 1, Rank: 2}
	others := []BBKey{{Op: "b", Seq: 1, Rank: 2}, {Op: "a", Seq: 2, Rank: 2}, {Op: "a", Seq: 1, Rank: 3}}
	got, at := make([]any, 4), make([]float64, 4)
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		if r := p.Rank(); r > 0 {
			got[r] = c.BBWait(p, others[r-1])
			at[r] = p.Now()
			return
		}
		p.Compute(1) // every waiter is parked by now
		untouched := func(after string) {
			for _, k := range others {
				if e := c.bb[k]; e == nil || e.present || len(e.waiters) != 1 {
					t.Errorf("%s %+v: slot %+v changed", after, base, k)
				}
			}
		}
		c.BBPost(base, "base")
		untouched("posting")
		c.BBClear(base)
		untouched("clearing")
		for i, k := range others {
			p.Compute(1)
			c.BBPost(k, i)
		}
		c.BBClear(others[0])
		if e := c.bb[others[1]]; e == nil || e.val != 1 {
			t.Errorf("clearing %+v disturbed %+v", others[0], others[1])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 4; r++ {
		if got[r] != r-1 || at[r] != float64(r+1) {
			t.Errorf("waiter on %+v got %v at t=%g, want %d at t=%d", others[r-1], got[r], at[r], r-1, r+1)
		}
	}
}

func TestSeqAlignsAcrossRanks(t *testing.T) {
	w := bbWorld(t)
	seqs := make([][]int, 4)
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		me := c.Rank(p)
		for i := 0; i < 3; i++ {
			seqs[me] = append(seqs[me], c.Seq(p))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		for i := 0; i < 3; i++ {
			if seqs[r][i] != i {
				t.Fatalf("rank %d call %d got seq %d", r, i, seqs[r][i])
			}
		}
	}
}

func TestSeqIndependentPerComm(t *testing.T) {
	w := bbWorld(t)
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		sub := c.Split(p, 0, c.Rank(p))
		if c.Seq(p) != 0 || sub.Seq(p) != 0 {
			t.Error("fresh comms should start at seq 0")
		}
		if c.Seq(p) != 1 {
			t.Error("world comm seq should advance independently")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
