// Package san is hiersan, the simulator's opt-in dynamic sanitizer. It
// checks a hazard that happens in *virtual* time on a single scheduler —
// invisible to go test -race by construction, since a world's hooks all run
// on one coroutine at a time:
//
//   - Virtual-time buffer conflicts. Collectives and KNEM devices register
//     (rank, buffer, [off,end), vtime-interval, R/W) access windows. Two
//     windows conflict when they touch overlapping bytes of one allocation
//     from different ranks, at least one writes, and no virtual-time
//     synchronization edge (message completion, barrier release, wake,
//     blackboard post) orders them. This is exactly the single-copy overlap
//     hazard HierKNEM's algorithms must avoid: a kernel-assisted copy
//     reading a buffer in the same window another rank writes it.
//
// The checker is an interval-overlap detector, not a full happens-before
// engine: windows that completed strictly in the virtual past are excused
// (the clock itself orders them), windows completed at the *current* instant
// need a sync edge recorded at that instant, and two windows in flight
// simultaneously always conflict. Sync edges are therefore instant-scoped: a
// union-find over rank identities that resets whenever the clock advances.
//
// A Sanitizer schedules no events and never advances the clock, so an
// enabled run is event-for-event and tick-for-tick identical to a disabled
// one; every hook in the instrumented packages is nil-guarded, so a
// disabled run adds no allocations to the hot path either. Enable per world
// with World.EnableSanitizer, or for a whole test run with HIERSAN=1.
package san

import (
	"fmt"
	"os"
)

// EnvEnabled reports whether the HIERSAN environment variable asks for the
// sanitizer (mpi.NewWorld consults it). Only the literal "1" enables.
func EnvEnabled() bool { return os.Getenv("HIERSAN") == "1" }

// window is one registered buffer access. Slots are handle-indexed and
// reused through a free list; a closed window survives only until the clock
// leaves the instant it closed at.
type window struct {
	rank  int
	who   string
	buf   uint64
	off   int64
	end   int64
	write bool
	begin float64
	inUse bool
	open  bool
}

// Sanitizer is one world's dynamic checker. The zero value is not usable;
// create one with New. It takes no lock: a world's hooks run on one
// coroutine at a time.
type Sanitizer struct {
	now         func() float64
	onViolation func(msg string)
	violations  int

	windows []window
	free    []int
	recent  []int // windows closed at lastNow, freed when the clock moves

	// Instant-scoped synchronization: union-find over rank identities,
	// valid only at lastNow.
	lastNow float64
	parent  map[int]int
}

// New creates a sanitizer reading virtual time through now (typically
// Engine.Now). Violations panic by default; see SetOnViolation.
func New(now func() float64) *Sanitizer {
	return &Sanitizer{
		now:    now,
		parent: make(map[int]int),
	}
}

// SetOnViolation replaces the violation handler (default: panic). Fault-
// injection tests install a collector; nil restores the panic.
func (s *Sanitizer) SetOnViolation(fn func(msg string)) { s.onViolation = fn }

// Violations returns the number of violations reported so far.
func (s *Sanitizer) Violations() int { return s.violations }

// Reset clears all access windows and sync edges, matching a World/Engine
// reset. The violation handler survives.
func (s *Sanitizer) Reset() {
	s.windows = s.windows[:0]
	s.free = s.free[:0]
	s.recent = s.recent[:0]
	clear(s.parent)
	s.lastNow = 0
}

func (s *Sanitizer) violate(format string, args ...any) {
	s.violations++
	msg := fmt.Sprintf(format, args...)
	if s.onViolation != nil {
		s.onViolation(msg)
		return
	}
	panic(msg)
}

// advance lazily reacts to clock movement: windows closed at the previous
// instant become ordered by virtual time itself and are dropped, and the
// instant's sync edges expire with them.
func (s *Sanitizer) advance() float64 {
	now := s.now()
	if now != s.lastNow {
		for _, h := range s.recent {
			if !s.windows[h].open {
				s.windows[h].inUse = false
				s.free = append(s.free, h)
			}
		}
		s.recent = s.recent[:0]
		if len(s.parent) > 0 {
			clear(s.parent)
		}
		s.lastNow = now
	}
	return now
}

// BeginAccess opens an access window: rank (a des proc identity) touches
// bytes [off, off+n) of allocation buf from the current instant until the
// matching EndAccess, reading or writing. It returns a handle for EndAccess;
// zero-length windows are not tracked and return -1. Conflicts are reported
// against every overlapping window of another rank that is still in flight,
// or that closed at the current instant without a sync edge to rank.
func (s *Sanitizer) BeginAccess(rank int, who string, buf uint64, off, n int64, write bool) int {
	if n <= 0 {
		return -1
	}
	now := s.advance()
	end := off + n
	for h := range s.windows {
		w := &s.windows[h]
		if !w.inUse || w.buf != buf || w.rank == rank {
			continue
		}
		if !(w.write || write) || off >= w.end || w.off >= end {
			continue
		}
		if !w.open && s.synced(w.rank, rank) {
			continue // closed this instant, ordered by a recorded sync edge
		}
		state := "still in flight (begun at"
		if !w.open {
			state = "unsynchronized, closed this instant (begun at"
		}
		s.violate("san: conflicting buffer access at t=%g: %s %ss buf %d [%d,%d) while %s's %s of [%d,%d) is %s t=%g): no virtual-time sync edge orders them",
			now, who, rw(write), buf, off, end, w.who, rw(w.write), w.off, w.end, state, w.begin)
	}
	var h int
	if k := len(s.free) - 1; k >= 0 {
		h = s.free[k]
		s.free = s.free[:k]
	} else {
		h = len(s.windows)
		s.windows = append(s.windows, window{})
	}
	s.windows[h] = window{rank: rank, who: who, buf: buf, off: off, end: end,
		write: write, begin: now, inUse: true, open: true}
	return h
}

func rw(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// EndAccess closes the window behind handle h (from BeginAccess; -1 is a
// no-op). The window stays visible to conflict checks until the clock
// leaves the current instant.
func (s *Sanitizer) EndAccess(h int) {
	if h < 0 {
		return
	}
	s.advance()
	if h >= len(s.windows) || !s.windows[h].inUse || !s.windows[h].open {
		return
	}
	s.windows[h].open = false
	s.recent = append(s.recent, h)
}

// SyncEdge records that ranks a and b synchronized at the current instant
// (a message completion, a barrier release, a direct wake): accesses one of
// them completed at this instant are ordered before accesses the other
// begins at this instant. Edges are transitive within the instant and
// expire when the clock advances.
func (s *Sanitizer) SyncEdge(a, b int) {
	if a == b {
		return
	}
	s.advance()
	ra, rb := s.find(a), s.find(b)
	if ra != rb {
		s.parent[ra] = rb
	}
}

func (s *Sanitizer) find(x int) int {
	r := x
	for {
		p, ok := s.parent[r]
		if !ok || p == r {
			break
		}
		r = p
	}
	for x != r {
		next := s.parent[x]
		s.parent[x] = r
		x = next
	}
	return r
}

func (s *Sanitizer) synced(a, b int) bool { return s.find(a) == s.find(b) }
