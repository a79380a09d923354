package knem

import (
	"fmt"
	"slices"
	"testing"

	"hierknem/internal/buffer"
	"hierknem/internal/des"
	"hierknem/internal/shm"
	"hierknem/internal/topology"
)

// steppedGet runs one get inside a stepped wait, the way a caller's
// Stepper does: StartGet in its first Step, then Copy.Step as a sub-step.
type steppedGet struct {
	d       *Device
	core    *topology.Core
	ck      Cookie
	off     int64
	dst     *buffer.Buffer
	started bool
	c       Copy
}

func (g *steppedGet) Step(p *des.Proc) des.Wait {
	if !g.started {
		g.started = true
		c, w, err := g.d.StartGet(p, g.core, g.ck, g.off, g.dst, 0, g.dst.Len())
		if err != nil {
			panic(err)
		}
		g.c = c
		return w
	}
	return g.c.Step(p)
}

// processGet is Get as it was written before it was split into StartGet
// and Copy.Step: one blocking shm.CopyBuffer. It is the reference the
// blocking and the stepped get must reproduce.
func processGet(d *Device, p *des.Proc, requester *topology.Core, ck Cookie, off int64, dst *buffer.Buffer) error {
	reg, err := d.lookup(ck, RightRead, requester)
	if err != nil {
		return err
	}
	src := reg.buf.Slice(off, dst.Len())
	shm.CopyBuffer(p, d.machine, requester, reg.owner.Socket, requester.Socket, src, dst)
	d.stats.Gets++
	d.stats.BytesCopied += dst.Len()
	return nil
}

// getMode is how getScenario's readers run their gets.
type getMode int

const (
	processStyle getMode = iota // processGet
	blocking                    // Device.Get
	stepped                     // steppedGet
)

// getRun is what one run of getScenario observed.
type getRun struct {
	ends   []float64 // each reader's virtual time after its get
	stats  Stats
	events uint64
	data   [][]byte
}

// getScenario has three readers fetch overlapping ranges of one region,
// two of them as fabric flows that share the node's memory bus and one as a
// bypassing sleep, while a stray Wake interrupts a flow's await.
func getScenario(t *testing.T, mode getMode) getRun {
	t.Helper()
	m := testMachine(t, 1)
	d := NewDevice(m, 0)
	var run getRun
	data := make([]byte, 96)
	for i := range data {
		data[i] = byte(i + 1)
	}
	src := buffer.NewReal(data)
	ck := d.Register(src, m.Core(0), RightRead)

	type reader struct {
		off, n int64
		delay  float64
		bypass bool
	}
	readers := []reader{{0, 64, 0, false}, {32, 64, 0.75, false}, {8, 16, 1, true}}
	run.ends = make([]float64, len(readers))
	run.data = make([][]byte, len(readers))
	var procs []*des.Proc
	for i, r := range readers {
		i, r := i, r
		dst := buffer.NewReal(make([]byte, r.n))
		procs = append(procs, m.Eng.Spawn(fmt.Sprintf("reader%d", i), func(p *des.Proc) {
			p.Sleep(r.delay)
			p.SetBypass(r.bypass)
			var err error
			switch mode {
			case processStyle:
				err = processGet(d, p, m.Core(i+1), ck, r.off, dst)
			case blocking:
				err = d.Get(p, m.Core(i+1), ck, r.off, dst)
			case stepped:
				p.Steps(&steppedGet{d: d, core: m.Core(i + 1), ck: ck, off: r.off, dst: dst})
			}
			if err != nil {
				t.Error(err)
			}
			run.ends[i] = p.Now()
			run.data[i] = dst.Data()
		}))
	}
	m.Eng.At(1.5, procs[0].Wake)
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, r := range readers {
		if want := data[r.off : r.off+r.n]; !slices.Equal(run.data[i], want) {
			t.Errorf("mode %d: reader%d got %v, want %v", mode, i, run.data[i], want)
		}
	}
	run.stats = d.Stats()
	run.events = m.Eng.Processed()
	return run
}

// TestSteppedGetMatchesBlockingGet: a get run as a stepped wait, from
// StartGet and Copy.Step, ends at the same virtual time, counts the same
// Stats, dispatches the same events and delivers the same bytes as the
// blocking Get, which is built from the same two halves, and as the
// process-style reference, which is not.
func TestSteppedGetMatchesBlockingGet(t *testing.T) {
	ref := getScenario(t, processStyle)
	if want := (Stats{Registrations: 1, Gets: 3, BytesCopied: 144}); ref.stats != want {
		t.Errorf("stats %+v, want %+v", ref.stats, want)
	}
	for _, mode := range []getMode{blocking, stepped} {
		got := getScenario(t, mode)
		if !slices.Equal(got.ends, ref.ends) {
			t.Errorf("mode %d: gets end at %v, want %v", mode, got.ends, ref.ends)
		}
		if got.stats != ref.stats {
			t.Errorf("mode %d: stats %+v, want %+v", mode, got.stats, ref.stats)
		}
		if got.events != ref.events {
			t.Errorf("mode %d: %d events, want %d", mode, got.events, ref.events)
		}
	}
}
