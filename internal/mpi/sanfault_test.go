package mpi

// Seeded-fault fixtures for hiersan at the MPI layer: an unsynchronized
// overlapping single-copy must trip the virtual-time conflict checker with
// rank/vtime detail, a release from process context must record the sync
// edge that orders same-instant accesses, and a drained queue with
// outstanding operations must produce a stall autopsy naming the pending
// receive and the unmatched send.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hierknem/internal/buffer"
	"hierknem/internal/des"
	"hierknem/internal/knem"
	"hierknem/internal/topology"
)

func collectViolations(w *World) *[]string {
	var got []string
	w.EnableSanitizer().SetOnViolation(func(msg string) { got = append(got, msg) })
	return &got
}

// TestSanitizerDetectsOverlappingCopy plants the bug class the conflict
// checker exists for: two ranks Put into the same registered region at the
// same virtual time with no ordering sync edge between them.
func TestSanitizerDetectsOverlappingCopy(t *testing.T) {
	w := newToyWorld(t, 1, 1, 3, 3)
	got := collectViolations(w)
	target := buffer.NewReal(make([]byte, 64))
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		if p.Rank() == 0 {
			ck := p.Knem().Register(target, p.Core(), knem.RightWrite)
			c.BBPost(p, BBKey{Op: "ck"}, ck)
			return
		}
		ck := c.BBWait(p, BBKey{Op: "ck"}).(knem.Cookie)
		src := buffer.NewReal(make([]byte, 32))
		if err := p.Knem().Put(p.DES(), p.Core(), ck, 0, src); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(*got) == 0 {
		t.Fatal("overlapping unsynchronized Puts produced no conflict violation")
	}
	v := (*got)[0]
	for _, want := range []string{"conflicting buffer access", "write", "t="} {
		if !strings.Contains(v, want) {
			t.Errorf("violation %q missing %q", v, want)
		}
	}
	if !strings.Contains(v, "rank1") && !strings.Contains(v, "rank2") {
		t.Errorf("violation %q does not name a rank", v)
	}
}

// TestStallAutopsyNamesPendingOps: with the sanitizer attached, a drained
// queue surfaces as a StallError whose report lists the pending receives
// (rank, tag, posting time) in posting order — two specific receives that
// share a hash chain, a wildcard posted between them, then the blocking
// receive — and the unmatched send sitting in the unexpected queue.
func TestStallAutopsyNamesPendingOps(t *testing.T) {
	w := newToyWorld(t, 1, 1, 2, 2)
	collectViolations(w)
	// Two tags whose keys land in one bucket of a first-use index.
	ctx := w.WorldComm().ctx
	const tagA = 100
	tagB := tagA + 1
	for bucketOf(ctx, 1, tagB, minBuckets) != bucketOf(ctx, 1, tagA, minBuckets) {
		tagB++
	}
	err := w.Run(func(p *Proc) {
		c := w.WorldComm()
		if p.Rank() == 0 {
			first := p.Irecv(c, buffer.NewReal(make([]byte, 4)), 1, tagB)
			wild := p.Irecv(c, buffer.NewReal(make([]byte, 4)), AnySource, 99)
			second := p.Irecv(c, buffer.NewReal(make([]byte, 4)), 1, tagA)
			p.Recv(c, buffer.NewReal(make([]byte, 4)), 1, 42) // never matched
			p.WaitAll(first, wild, second)
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
		fmt.Sprintf("rank0: recv pending ctx=%d src=any tag=99 posted at t=", ctx),
		fmt.Sprintf("rank0: recv pending ctx=%d src=rank1 tag=%d posted at t=", ctx, tagA),
		fmt.Sprintf("rank0: recv pending ctx=%d src=rank1 tag=42 posted at t=", ctx),
		"unmatched send from rank1",
		"tag=7",
	} {
		i := strings.Index(msg[at:], want)
		if i < 0 {
			t.Fatalf("stall report lacks %q after offset %d (postings must list in posting order):\n%s", want, at, msg)
		}
		at += i + len(want)
	}
}

// TestStallAutopsyEmptyCase: ranks parked outside point-to-point still get
// a report, with the explicit no-pending note.
func TestStallAutopsyEmptyCase(t *testing.T) {
	w := newToyWorld(t, 1, 1, 2, 2)
	collectViolations(w)
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

// TestReleaseEdgesOrderSameInstantAccesses: where one rank releases others
// from process context — the last arriver at a flag barrier, BBPost, the
// last arriver at Split — the release is a sync edge. The releaser closes a
// write window at the release instant and the released rank opens a read
// window on the same bytes at that same instant; only the edge orders them.
// ShmLatency is zero so that the flag barrier's last arrival charges no time
// between the write and the release.
func TestReleaseEdgesOrderSameInstantAccesses(t *testing.T) {
	for _, tc := range []struct {
		name    string
		release func(c *Comm, p *Proc) // the releaser's half
		wait    func(c *Comm, p *Proc) // the released rank's half
	}{
		{"flag barrier", (*Comm).Barrier, (*Comm).Barrier},
		{"blackboard",
			func(c *Comm, p *Proc) { c.BBPost(p, BBKey{Op: "edge"}, 1) },
			func(c *Comm, p *Proc) { c.BBWait(p, BBKey{Op: "edge"}) }},
		{"split",
			func(c *Comm, p *Proc) { c.Split(p, 0, 0) },
			func(c *Comm, p *Proc) { c.Split(p, 0, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := toySpec(1, 1, 2)
			spec.ShmLatency = 0
			m, err := topology.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ByCoreBinding(m, 2)
			if err != nil {
				t.Fatal(err)
			}
			w, err := NewWorld(m, b, toyConf())
			if err != nil {
				t.Fatal(err)
			}
			got := collectViolations(w)
			s := w.Sanitizer()
			data := buffer.NewReal(make([]byte, 64))
			access := func(p *Proc, write bool) int {
				return s.BeginAccess(p.DES().ID(), p.name, data.ID(), data.Off(), data.Len(), write)
			}
			var wrote, read float64
			err = w.Run(func(p *Proc) {
				c := w.WorldComm()
				if p.Rank() == 0 {
					tc.wait(c, p) // parks: rank 1 arrives a second later
					read = p.Now()
					s.EndAccess(access(p, false))
					return
				}
				h := access(p, true)
				p.Compute(1)
				s.EndAccess(h)
				wrote = p.Now()
				tc.release(c, p)
			})
			if err != nil {
				t.Fatal(err)
			}
			if read != wrote {
				t.Fatalf("released rank read at t=%g, the write closed at t=%g: the accesses are not at one instant", read, wrote)
			}
			if len(*got) > 0 {
				t.Fatalf("a %s release recorded no sync edge: %s", tc.name, (*got)[0])
			}
		})
	}
}
