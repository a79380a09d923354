package sweep

import (
	"strings"
	"testing"

	"hierknem/internal/buffer"
	"hierknem/internal/clusters"
	"hierknem/internal/mpi"
)

// TestRankPanicIsContainedToItsJob runs three same-shape jobs on one worker,
// so all three share one cached world, and lets a rank body of the middle
// job panic. The panic leaves that world mid-run (the other ranks are still
// parked); the job after it must get a fresh world, not a Reset of the
// broken one.
func TestRankPanicIsContainedToItsJob(t *testing.T) {
	spec := clusters.Stremi(1)
	const np = 4
	ring := func(c *Ctx, failAt int) float64 {
		w := c.World(spec, "bycore", np)
		err := w.Run(func(p *mpi.Proc) {
			wc := w.WorldComm()
			me := p.Rank()
			p.SendRecv(wc, buffer.NewPhantom(64), (me+1)%np, 0, buffer.NewPhantom(64), (me+np-1)%np, 0)
			if me == failAt {
				panic("rank body gives up")
			}
			wc.Barrier(p)
		})
		if err != nil {
			panic(err)
		}
		return w.Now()
	}

	s := New("test", 1, nil)
	before := Go(s, "ring/before", func(c *Ctx) float64 { return ring(c, -1) })
	Go(s, "ring/broken", func(c *Ctx) float64 { return ring(c, 2) })
	after := Go(s, "ring/after", func(c *Ctx) float64 { return ring(c, -1) })
	err := s.Run()
	if err == nil {
		t.Fatal("Run returned nil, want the broken job's panic")
	}
	msg := err.Error()
	if !strings.Contains(msg, `job "ring/broken" panicked: rank body gives up`) {
		t.Errorf("error does not name the failing job and its panic:\n%s", msg)
	}
	if strings.Contains(msg, "ring/before") || strings.Contains(msg, "ring/after") {
		t.Errorf("the panic spread to a neighbouring job:\n%s", msg)
	}
	if before.Get() <= 0 || after.Get() != before.Get() {
		t.Errorf("surviving jobs finished at %g and %g, want the same positive time", before.Get(), after.Get())
	}
}
