package mpi

import "hierknem/internal/des"

// waitStep is the state of a stepped wait (des.Proc.Steps): a rendezvous
// that would cost its rank a coroutine switch per sleep or park runs in
// engine context instead, and the rank is switched into once, when it is
// over. A rank is in at most one such wait at a time, so one record per
// rank serves them all, and handing it to the engine allocates nothing.
//
// The same record is also a sub-step (see des.Stepper): BarrierStep and
// LookupStep arm it and hand it to a caller whose own Stepper drives it to
// Done, so a sequence of barriers, lookups and copies is one Steps.
type waitStep struct {
	p     *Proc
	c     *Comm
	kind  stepKind
	phase uint8

	// Dissemination barrier: the round under way, this rank's comm rank,
	// and the round's receive and send.
	round uint8
	me    int32
	r     *Request
	snd   Send

	// Flag barrier: the generation this rank waits to see pass.
	gen int

	// Blackboard lookup: the charge before the wait, the key, its slot.
	d   float64
	key BBKey
	e   *bbEntry
}

// waitStep returns p's stepped-wait record. The world's records are one
// table made at the first stepped wait: kept on Proc they would make every
// world cost 96 more bytes per rank to build, whether it ever waits or not.
func (p *Proc) waitStep() *waitStep {
	w := p.world
	if w.steps == nil {
		w.steps = make([]waitStep, len(w.procs))
		for i, q := range w.procs {
			w.steps[i].p = q
		}
	}
	return &w.steps[p.rank]
}

type stepKind uint8

const (
	stepDissemination stepKind = iota
	stepFlag
	stepLookup
)

// arm makes the record a wait of kind on c from phase.
func (s *waitStep) arm(kind stepKind, c *Comm, phase uint8) *waitStep {
	s.kind, s.phase, s.c = kind, phase, c
	return s
}

// Step advances the wait (des.Stepper). A wait that is over lets go of its
// communicator.
func (s *waitStep) Step(*des.Proc) des.Wait {
	var w des.Wait
	switch s.kind {
	case stepDissemination:
		w = s.dissemination()
	case stepFlag:
		w = s.flag()
	default:
		w = s.lookup()
	}
	if w == des.Done {
		s.c = nil
	}
	return w
}

// dissemination is one round after another of the dissemination barrier,
// each an Irecv from me-dist, an Isend to me+dist, and a Wait on both, for
// dist = 1, 2, 4, ... below the communicator size. The Isend is StartSend
// and Send.Step as sub-steps; a zero-byte message charges its sender a
// plain sleep.
func (s *waitStep) dissemination() des.Wait {
	p, c := s.p, s.c
	n, me := c.Size(), int(s.me)
	for {
		dist := 1 << s.round
		switch s.phase {
		case 0:
			if dist >= n {
				s.r, s.snd = nil, Send{}
				return des.Done
			}
			tag := internalTagBase + int(s.round)
			s.r = p.Irecv(c, c.world.empty, (me-dist+n)%n, tag)
			var w des.Wait
			s.snd, w = p.StartSend(c, c.world.empty, (me+dist)%n, tag)
			s.phase = 1
			if w != des.Done {
				return w
			}
		case 1:
			if w := s.snd.Step(p.dp); w != des.Done {
				return w
			}
			s.phase = 2
		case 2:
			if w := s.r.Step(p.dp); w != des.Done {
				return w
			}
			s.phase = 3
		case 3:
			if w := s.snd.Request().Step(p.dp); w != des.Done {
				return w
			}
			s.round++
			s.phase = 0
		}
	}
}

// flag is the intra-node flag barrier: one shm latency to raise this rank's
// flag, then the arrival. The last arriver starts a new generation and
// wakes the others, in arrival order; the others park until it has.
func (s *waitStep) flag() des.Wait {
	b := &s.c.barrier
	switch s.phase {
	case 0:
		if s.c.Size() == 1 {
			return des.Done // as Barrier: no flag to raise
		}
		s.phase = 1
		return des.SleepFor(s.c.world.Machine.Spec.ShmLatency)
	case 1:
		b.count++
		if b.count == s.c.Size() {
			b.count = 0
			b.gen++
			wakeAll(&b.waiters)
			return des.Done
		}
		if b.waiters == nil {
			b.waiters = make([]*Proc, 0, s.c.Size()-1)
		}
		s.gen = b.gen
		b.waiters = append(b.waiters, s.p)
		s.phase = 2
		return des.Parked
	}
	if b.gen == s.gen {
		return des.Parked
	}
	return des.Done
}

// lookup charges d (phase 0), then waits for key to be posted (from phase
// 1, where BBWait starts).
func (s *waitStep) lookup() des.Wait {
	switch s.phase {
	case 0:
		s.phase = 1
		return des.SleepFor(s.d)
	case 1:
		s.e = s.c.entry(s.key)
		s.phase = 2
	}
	e := s.e
	if !e.present {
		if e.waiters == nil {
			e.waiters = make([]*Proc, 0, s.c.Size()-1)
		}
		e.waiters = append(e.waiters, s.p)
		return des.Parked
	}
	return des.Done
}
