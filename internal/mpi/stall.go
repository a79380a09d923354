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
// The same report backs UncollectedError, Run's one-pass check of each
// rank's count of issued but uncollected requests.

import (
	"fmt"
	"maps"
	"slices"
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

// UncollectedError reports a run that drained without a deadlock while some
// rank body returned holding requests it never waited on. Such a request
// silently drops its message (an Irecv that never matched) or keeps a pooled
// record out of circulation (an Isend nobody collected), so World.Run treats
// it as a bad rank program rather than a result.
type UncollectedError struct {
	// Open maps each offending world rank to its uncollected request count.
	Open map[int]int
	// Report lists the postings and envelopes still pending, in the
	// StallError format; empty when every uncollected request completed.
	Report string
}

func (e *UncollectedError) Error() string {
	var b strings.Builder
	b.WriteString("mpi: rank bodies returned holding uncollected requests:")
	for _, r := range slices.Sorted(maps.Keys(e.Open)) {
		fmt.Fprintf(&b, " rank%d (%d)", r, e.Open[r])
	}
	if e.Report != "" {
		b.WriteString("\npending:\n" + e.Report)
	}
	return b.String()
}

// uncollected returns an *UncollectedError when a rank holds requests it
// issued and never waited on, nil otherwise.
func (w *World) uncollected() error {
	var open map[int]int
	for _, p := range w.procs {
		if p.open > 0 {
			if open == nil {
				open = map[int]int{}
			}
			open[p.rank] = p.open
		}
	}
	if open == nil {
		return nil
	}
	return &UncollectedError{Open: open, Report: w.stallReport()}
}

// stallReport lists every rank's pending receives (posting order) and
// unmatched sends (arrival order), with the virtual time each was issued;
// it is empty when nothing is pending.
func (w *World) stallReport() string {
	var b strings.Builder
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
		}
		for env := p.unexpected.head; env != nil; env = env.next {
			fmt.Fprintf(&b, "  %s: unmatched send from rank%d ctx=%d tag=%d size=%d sent at t=%g\n",
				p.name, env.srcWorld, env.ctx, env.tag, env.size, env.sentAt)
		}
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
