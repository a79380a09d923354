package mpi

// Stall autopsy (hiersan checker 2): when the event queue drains while
// ranks are still parked, the bare engine can only name the stuck
// processes. World.Run therefore wraps every deadlock in a StallError
// carrying every pending point-to-point operation — which rank waits on
// which (comm, peer, tag) and when it posted — so a mismatched tag or a
// missing send reads straight off the failure instead of requiring a
// debugger session against recycled records. The report reads only the
// matching indexes, which every run keeps, so it needs no sanitizer and
// costs nothing on a run that completes.

import (
	"fmt"
	"sort"
	"strings"

	"hierknem/internal/des"
)

// StallError is a des.DeadlockError augmented with the pending-operation
// report. errors.As(err, **des.DeadlockError) still matches through Unwrap,
// so existing deadlock handling keeps working.
type StallError struct {
	Deadlock *des.DeadlockError
	Report   string
}

func (e *StallError) Error() string {
	return e.Deadlock.Error() + "\nstall autopsy:\n" + e.Report
}

func (e *StallError) Unwrap() error { return e.Deadlock }

// stallReport lists every rank's pending receives (posting order) and
// unmatched sends (arrival order), with the virtual time each was issued.
func (w *World) stallReport() string {
	var b strings.Builder
	total := 0
	for _, p := range w.procs {
		for _, po := range p.posted.pending() {
			src := "any"
			if po.srcWorld != AnySource {
				src = fmt.Sprintf("rank%d", po.srcWorld)
			}
			tag := "any"
			if po.tag != AnyTag {
				tag = fmt.Sprintf("%d", po.tag)
			}
			fmt.Fprintf(&b, "  %s: recv pending ctx=%d src=%s tag=%s posted at t=%g\n",
				p.name, po.ctx, src, tag, po.postedAt)
			total++
		}
		for env := p.unexpected.head; env != nil; env = env.next {
			fmt.Fprintf(&b, "  %s: unmatched send from rank%d ctx=%d tag=%d size=%d sent at t=%g\n",
				p.name, env.srcWorld, env.ctx, env.tag, env.size, env.sentAt)
			total++
		}
	}
	if total == 0 {
		b.WriteString("  no pending point-to-point operations (ranks parked outside p2p)\n")
	}
	return strings.TrimRight(b.String(), "\n")
}

// pending returns the index's still-unmatched postings in posting order.
func (ix *postIndex) pending() []*posting {
	if ix.count == 0 {
		return nil
	}
	out := make([]*posting, 0, ix.count)
	for _, c := range ix.buckets {
		for po := c.head; po != nil; po = po.hnext {
			out = append(out, po)
		}
	}
	out = append(out, ix.wild...)
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}
