package mpi

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"hierknem/internal/buffer"
	"hierknem/internal/topology"
)

// The barriers and blackboard waits run as stepped waits (step.go). This
// file keeps them as they were written before, process-style — every sleep
// and park on the rank's own coroutine — as the reference the stepped forms
// must reproduce event for event.

// processBarrier is Comm.Barrier, process-style.
func processBarrier(c *Comm, p *Proc) {
	if c.Size() == 1 {
		return
	}
	if c.IntraNode() {
		p.dp.Sleep(c.world.Machine.Spec.ShmLatency)
		b := &c.barrier
		b.count++
		if b.count == c.Size() {
			b.count = 0
			b.gen++
			wakeAll(&b.waiters)
			return
		}
		if b.waiters == nil {
			b.waiters = make([]*Proc, 0, c.Size()-1)
		}
		myGen := b.gen
		b.waiters = append(b.waiters, p)
		for b.gen == myGen {
			p.dp.Park()
		}
		return
	}
	processDisseminationBarrier(c, p)
}

func processDisseminationBarrier(c *Comm, p *Proc) {
	me := c.Rank(p)
	n := c.Size()
	empty := c.world.empty
	for round, dist := 0, 1; dist < n; round, dist = round+1, dist*2 {
		to := (me + dist) % n
		from := (me - dist + n) % n
		tag := internalTagBase + round
		r := p.Irecv(c, empty, from, tag)
		s := p.Isend(c, empty, to, tag)
		p.Wait(r)
		p.Wait(s)
	}
}

// processBBWait is BBWait, process-style.
func processBBWait(c *Comm, p *Proc, key BBKey) any {
	e := c.entry(key)
	for !e.present {
		if e.waiters == nil {
			e.waiters = make([]*Proc, 0, c.Size()-1)
		}
		e.waiters = append(e.waiters, p)
		p.dp.Park()
	}
	if s := c.world.san; s != nil && e.poster != nil {
		s.SyncEdge(e.poster.dp.ID(), p.dp.ID())
	}
	return e.val
}

// waits is one implementation of the stepped waits.
type waits struct {
	barrier   func(c *Comm, p *Proc)
	bbWait    func(c *Comm, p *Proc, key BBKey) any
	bbWaitFor func(c *Comm, p *Proc, d float64, key BBKey) any
}

// stepped is the shipped implementation, processStyle the reference.
func stepped() waits {
	return waits{
		barrier:   (*Comm).Barrier,
		bbWait:    (*Comm).BBWait,
		bbWaitFor: func(c *Comm, p *Proc, d float64, key BBKey) any { return c.BBWaitAfter(p, d, key) },
	}
}

func processStyle() waits {
	return waits{
		barrier: processBarrier,
		bbWait:  processBBWait,
		bbWaitFor: func(c *Comm, p *Proc, d float64, key BBKey) any {
			p.Compute(d)
			return processBBWait(c, p, key)
		},
	}
}

// binomialBcast broadcasts buf from root over c with point-to-point messages.
func binomialBcast(c *Comm, p *Proc, buf *buffer.Buffer, root int) {
	n, me := c.Size(), c.Rank(p)
	rel := (me - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			p.Recv(c, buf, (me-mask+n)%n, 1)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < n {
			p.Send(c, buf, (me+mask)%n, 1)
		}
	}
}

// linearReduce sums every rank's buf into root's.
func linearReduce(c *Comm, p *Proc, buf *buffer.Buffer, root int) {
	me := c.Rank(p)
	if me != root {
		p.Send(c, buf, root, 2)
		return
	}
	tmp := buffer.NewReal(make([]byte, buf.Len()))
	for r := 0; r < c.Size(); r++ {
		if r != root {
			p.Recv(c, tmp, r, 2)
			p.ReduceLocal(buffer.OpSum, buffer.Int32, buf, tmp)
		}
	}
}

// mixedProgram runs barriers, broadcasts, reductions and blackboard lookups
// on the world and node communicators, and returns each rank's log of
// completion times in hex with the run's event count.
func mixedProgram(t *testing.T, w *World, impl waits) (string, uint64) {
	t.Helper()
	logs := make([][]string, w.Size())
	err := w.Run(func(p *Proc) {
		mark := func(what string) {
			logs[p.Rank()] = append(logs[p.Rank()], fmt.Sprintf("%s %x", what, math.Float64bits(p.Now())))
		}
		world := w.WorldComm()
		node := world.Split(p, p.Core().NodeID, p.Rank())
		p.Compute(float64(p.Rank()%5) * 0.125)
		impl.barrier(world, p)
		mark("world barrier")
		for i, size := range []int64{4, 64} {
			buf := buffer.NewReal(make([]byte, size))
			root := (i * 5) % world.Size()
			if world.Rank(p) == root {
				for j := range buf.Data() {
					buf.Data()[j] = byte(j + i)
				}
			}
			binomialBcast(world, p, buf, root)
			mark(fmt.Sprintf("bcast %d % x", size, buf.Data()[:4]))
		}
		impl.barrier(node, p)
		mark("node barrier")
		sum := buffer.NewReal(make([]byte, 16))
		sum.Data()[0] = byte(p.Rank())
		linearReduce(world, p, sum, world.Size()-1)
		mark(fmt.Sprintf("reduce % x", sum.Data()[:4]))
		for round := 0; round < 2; round++ {
			key := BBKey{Op: "mixed", Seq: node.Seq(p)}
			if node.Rank(p) == round%node.Size() {
				p.Compute(0.375)
				node.BBPost(p, key, p.Rank())
			} else if round == 0 {
				v := impl.bbWaitFor(node, p, w.Machine.Spec.ShmLatency, key)
				mark(fmt.Sprintf("lookup %v", v))
			} else {
				mark(fmt.Sprintf("bbwait %v", impl.bbWait(node, p, key)))
			}
			impl.barrier(node, p)
			mark("node barrier")
		}
		impl.barrier(world, p)
		mark("world barrier")
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for r, l := range logs {
		fmt.Fprintf(&b, "rank %d: %s\n", r, strings.Join(l, "; "))
	}
	return b.String(), w.Machine.Eng.Processed()
}

// TestSteppedWaitsMatchProcessStyle runs the mixed program with the shipped
// stepped waits and with the process-style reference, on fresh worlds, and
// requires identical per-rank completion logs and event counts.
func TestSteppedWaitsMatchProcessStyle(t *testing.T) {
	for _, binding := range []string{"bycore", "bynode"} {
		for _, np := range []int{1, 7, 48, 72} {
			world := func() *World {
				m, err := topology.Build(toySpec(3, 2, 12))
				if err != nil {
					t.Fatal(err)
				}
				bind := topology.ByCore
				if binding == "bynode" {
					bind = topology.ByNode
				}
				b, err := bind(m, np)
				if err != nil {
					t.Fatal(err)
				}
				w, err := NewWorld(m, b, toyConf())
				if err != nil {
					t.Fatal(err)
				}
				return w
			}
			got, gotEvents := mixedProgram(t, world(), stepped())
			want, wantEvents := mixedProgram(t, world(), processStyle())
			if got != want {
				t.Errorf("%s np=%d: stepped waits log\n%s\nprocess-style log\n%s", binding, np, got, want)
			}
			if gotEvents != wantEvents {
				t.Errorf("%s np=%d: %d events stepped, %d process-style", binding, np, gotEvents, wantEvents)
			}
		}
	}
}
