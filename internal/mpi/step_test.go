package mpi

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"hierknem/internal/buffer"
	"hierknem/internal/des"
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
				node.BBPost(key, p.Rank())
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

// The local reduction and the send are each split in two halves: a start
// that returns the charge as a wait (StartReduce, StartSend) and a finish
// that ends it (FinishReduce, Send.Step). ReduceLocal and Isend drive the
// halves on the rank; a caller's Stepper drives them in engine context.

// halvesMode is how halvesScenario's ranks run their reductions and sends.
type halvesMode int

const (
	halvesProcess  halvesMode = iota // processReduce, processSend
	halvesBlocking                   // ReduceLocal, Isend and Wait
	halvesStepped                    // steppedHalves
)

// processReduce is ReduceLocal as it was written before it was split into
// StartReduce and FinishReduce: a sleep inside a small stretch, otherwise
// a fabric flow awaited with AwaitBegin and AwaitEnd.
func processReduce(p *Proc, dst, src *buffer.Buffer) {
	switch n := dst.Len(); {
	case n == 0:
	case p.dp.Bypass():
		p.dp.Sleep(float64(n) / p.world.Machine.Spec.CoreCopyBandwidth)
	default:
		w, s := p.world, p.core.Socket
		path := w.reducePaths[s.NodeID*len(w.Machine.Nodes[0].Sockets)+s.ID][:]
		done := des.AwaitBegin(p.dp)
		w.Machine.Fab.StartAfter("compute", 0, float64(n), w.Machine.Spec.CoreCopyBandwidth, path, done)
		des.AwaitEnd(p.dp)
	}
	buffer.Reduce(buffer.OpSum, buffer.Int64, dst, src)
}

// processSend is Isend and Wait with the charge awaited as Isend awaited it
// before the split: a sleep, or AwaitEnd on the copy-in's flow; after it
// Send.Step must hand the message on at once.
func processSend(t *testing.T, p *Proc, c *Comm, buf *buffer.Buffer, dst int) {
	s, w := p.StartSend(c, buf, dst, 9)
	if w == des.Parked {
		des.AwaitEnd(p.dp)
	} else {
		p.dp.Suspend(w)
	}
	if w := s.Step(p.dp); w != des.Done {
		t.Errorf("%s: the send's Step asked for %v after its charge was over", p.name, w)
	}
	p.Wait(s.Request())
}

// steppedHalves runs one reduction (dst non-nil) or one send and its Wait
// as a stepped wait, the way a caller's Stepper does.
type steppedHalves struct {
	p        *Proc
	dst, src *buffer.Buffer // the reduction
	c        *Comm          // the send of src to peer
	peer     int
	phase    uint8
	snd      Send
}

func (h *steppedHalves) Step(dp *des.Proc) des.Wait {
	for {
		switch h.phase {
		case 0:
			h.phase = 1
			var w des.Wait
			if h.dst != nil {
				w = h.p.StartReduce(h.dst)
			} else {
				h.snd, w = h.p.StartSend(h.c, h.src, h.peer, 9)
			}
			if w != des.Done {
				return w
			}
		case 1:
			if h.dst != nil {
				return h.p.FinishReduce(buffer.OpSum, buffer.Int64, h.dst, h.src)
			}
			if w := h.snd.Step(dp); w != des.Done {
				return w
			}
			h.phase = 2
		default:
			return h.snd.Request().Step(dp)
		}
	}
}

// halvesInts is the payload of n bytes halvesScenario derives from seed.
func halvesInts(n int64, seed int) []int64 {
	v := make([]int64, n/8)
	for i := range v {
		v[i] = int64(seed*1000 + i)
	}
	return v
}

// halvesRun is what one run of halvesScenario observed.
type halvesRun struct {
	ends   [][]float64 // each rank's virtual time after each of its operations
	data   [][]byte    // rank 1's reduced buffers, then rank 3's received ones
	flows  uint64      // fabric fills
	events uint64
}

// halvesScenario runs every charge the halves return on two nodes of three
// ranks, eager threshold 16 KiB. Rank 0 sends to rank 1 on its node 64 B
// (eager, a copy-in sleep), 8 KiB (eager at the bypass cutoff and above, a
// copy-in flow) and 32 KiB (rendezvous, no charge), and to rank 3 on the
// other node 64 B and 32 KiB (the per-message overhead sleep). Rank 1 then
// folds its own data into the first two messages, the 64 B one inside a
// small stretch (a sleep) and the 8 KiB one outside (a flow), while rank 2
// runs a reduction flow on the same memory bus. A stray Wake lands during
// rank 0's copy-in and during rank 1's reduction flow.
func halvesScenario(t *testing.T, mode halvesMode) halvesRun {
	t.Helper()
	w := stretchWorld(t, 2, 3, 16<<10)
	eng := w.Machine.Eng
	sizes := []int64{64, 8 << 10, 32 << 10}
	fill := func(n int64, seed int) *buffer.Buffer { return buffer.Int64s(halvesInts(n, seed)) }
	reduce := func(p *Proc, dst, src *buffer.Buffer) {
		switch mode {
		case halvesProcess:
			processReduce(p, dst, src)
		case halvesBlocking:
			p.ReduceLocal(buffer.OpSum, buffer.Int64, dst, src)
		default:
			p.dp.Steps(&steppedHalves{p: p, dst: dst, src: src})
		}
	}
	send := func(p *Proc, c *Comm, buf *buffer.Buffer, dst int) {
		switch mode {
		case halvesProcess:
			processSend(t, p, c, buf, dst)
		case halvesBlocking:
			p.Wait(p.Isend(c, buf, dst, 9))
		default:
			p.dp.Steps(&steppedHalves{p: p, src: buf, c: c, peer: dst})
		}
	}
	run := halvesRun{ends: make([][]float64, w.Size())}
	got := make([][]*buffer.Buffer, w.Size())
	node0 := nodeComm(w, 0)
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		mark := func() { run.ends[p.Rank()] = append(run.ends[p.Rank()], p.Now()) }
		switch p.Rank() {
		case 0:
			for i, n := range sizes {
				if i == 1 {
					eng.At(p.Now()+1, p.dp.Wake)
				}
				send(p, c, fill(n, i), 1)
				mark()
			}
			for _, n := range []int64{64, 32 << 10} {
				send(p, c, fill(n, 7), 3)
				mark()
			}
		case 1:
			for _, n := range sizes {
				buf := buffer.NewReal(make([]byte, n))
				p.Recv(c, buf, 0, 9)
				got[1] = append(got[1], buf)
				mark()
			}
			p.BeginSmallStretch(node0, sizes[0])
			reduce(p, got[1][0], fill(sizes[0], 10))
			p.EndSmallStretch()
			mark()
			eng.At(p.Now()+1, p.dp.Wake)
			reduce(p, got[1][1], fill(sizes[1], 11))
			mark()
		case 2:
			p.Compute(1300) // inside rank 1's reduction flow
			reduce(p, buffer.NewPhantom(16<<10), buffer.NewPhantom(16<<10))
			mark()
		case 3:
			for _, n := range []int64{64, 32 << 10} {
				buf := buffer.NewReal(make([]byte, n))
				p.Recv(c, buf, 0, 9)
				got[3] = append(got[3], buf)
				mark()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 3} {
		for _, b := range got[r] {
			run.data = append(run.data, b.Data())
		}
	}
	run.flows = w.Machine.Fab.Stats().Fills
	run.events = eng.Processed()
	return run
}

// TestSteppedHalvesMatchBlocking: reductions and sends run as stepped
// waits, from the start and finish halves, end at the same virtual times,
// dispatch the same events and deliver the same bytes as ReduceLocal and
// Isend, which are built from the same halves, and as the process-style
// reference, which awaits their charges without them.
func TestSteppedHalvesMatchBlocking(t *testing.T) {
	ref := halvesScenario(t, halvesProcess)
	sum := func(n int64, seed int) []byte {
		a, b := halvesInts(n, seed), halvesInts(n, seed+10)
		for i := range a {
			a[i] += b[i]
		}
		return buffer.Int64s(a).Data()
	}
	want := [][]byte{
		sum(64, 0),
		sum(8<<10, 1),
		buffer.Int64s(halvesInts(32<<10, 2)).Data(),
		buffer.Int64s(halvesInts(64, 7)).Data(),
		buffer.Int64s(halvesInts(32<<10, 7)).Data(),
	}
	for i := range want {
		if !slices.Equal(ref.data[i], want[i]) {
			t.Errorf("process-style: buffer %d holds the wrong bytes", i)
		}
	}
	for _, mode := range []halvesMode{halvesBlocking, halvesStepped} {
		got := halvesScenario(t, mode)
		for r := range ref.ends {
			if !slices.Equal(got.ends[r], ref.ends[r]) {
				t.Errorf("mode %d: rank %d's operations end at %v, want %v", mode, r, got.ends[r], ref.ends[r])
			}
		}
		for i := range ref.data {
			if !slices.Equal(got.data[i], ref.data[i]) {
				t.Errorf("mode %d: buffer %d differs from the process-style run", mode, i)
			}
		}
		if got.flows != ref.flows {
			t.Errorf("mode %d: %d fabric fills, want %d", mode, got.flows, ref.flows)
		}
		if got.events != ref.events {
			t.Errorf("mode %d: %d events, want %d", mode, got.events, ref.events)
		}
	}
}
