package mpi

import "hierknem/internal/des"

// waitStep is the state of a stepped wait (des.Proc.Steps): a rendezvous
// that would cost its rank a coroutine switch per sleep or park runs in
// engine context instead, and the rank is switched into once, when it is
// over. A rank is in at most one such wait at a time, so one record per
// rank serves them all, and handing it to the engine allocates nothing.
//
// The same record is also a sub-step (see des.Stepper): BarrierStep,
// LookupStep and SplitStep arm it and hand it to a caller whose own Stepper
// drives it to Done, so a sequence of splits, barriers, lookups and copies
// is one Steps.
type waitStep struct {
	p     *Proc
	c     *Comm
	kind  stepKind
	phase uint8

	// Dissemination barrier: the round under way, this rank's comm rank,
	// and the round's exchange, which Proc.SendRecv runs in too.
	round uint8
	me    int32
	x     SendRecv

	// Flag barrier: the generation this rank waits to see pass.
	gen int

	// Blackboard lookup: the charge before the wait, the key, its slot.
	// Split: d is the charge before the first arrival, me this rank's
	// comm rank and gen the leaders' key (SplitLeadersStep).
	d   float64
	key BBKey
	e   *bbEntry

	// Split: the staging record of the split under way, which holds this
	// rank's entry from arming on and its result once published, and the
	// first split's result while the leaders' one runs.
	split *splitState
	got   *Comm
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
	stepSplit
)

// The round of a split: a lone split, the first of SplitLeadersStep's two,
// or the leaders' one.
const (
	splitLone uint8 = iota
	splitFirst
	splitLeaders
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
	case stepSplit:
		w = s.splitWait()
	default:
		w = s.lookup()
	}
	if w == des.Done {
		s.c = nil
	}
	return w
}

// dissemination is one round after another of the dissemination barrier,
// each a SendRecv of a zero-byte message to me+dist from me-dist, for dist
// = 1, 2, 4, ... below the communicator size, run as a sub-step. A
// zero-byte message charges its sender a plain sleep.
func (s *waitStep) dissemination() des.Wait {
	p, c := s.p, s.c
	n, me := c.Size(), int(s.me)
	for {
		if s.phase == 0 {
			dist := 1 << s.round
			if dist >= n {
				s.x = SendRecv{}
				return des.Done
			}
			tag := internalTagBase + int(s.round)
			s.x = p.StartSendRecv(c, c.world.empty, (me+dist)%n, tag, c.world.empty, (me-dist+n)%n, tag)
			s.phase = 1
		}
		if w := s.x.Step(p.dp); w != des.Done {
			return w
		}
		s.round++
		s.phase = 0
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

// armSplit makes the record a split of c by (color, key) after a charge of
// d, followed by the leaders' split by lkey if leaders is set, and stages
// this rank's entry. The first member to arm creates the staging record;
// the entries are read only once the last member has arrived.
func (s *waitStep) armSplit(c *Comm, d float64, color, key int, leaders bool, lkey int) *waitStep {
	s.me, s.d, s.gen, s.round = int32(c.Rank(s.p)), d, lkey, splitLone
	if leaders {
		s.round = splitFirst
	}
	var phase uint8 = 1
	if d != 0 {
		phase = 0
	}
	s.arm(stepSplit, c, phase)
	s.stage(color, key)
	return s
}

// stage enters this rank in the split under way on s.c, creating it if no
// member has yet.
func (s *waitStep) stage(color, key int) {
	c := s.c
	if c.splitOp == nil {
		c.splitOp = &splitState{
			entries: make([]splitEntry, c.Size()),
			waiters: make([]*Proc, 0, c.Size()-1),
		}
	}
	s.split = c.splitOp
	s.split.entries[s.me] = splitEntry{color, key, int(s.me)}
}

// splitWait charges d (phase 0), arrives (phase 1) and waits for the split
// to be published (phase 2). Every arriver but the last parks; the last
// publishes it (Comm.publish), which wakes the others in arrival order.
// After the first of SplitLeadersStep's splits it arrives at the leaders'
// one at once, at the same virtual time.
func (s *waitStep) splitWait() des.Wait {
	for {
		switch s.phase {
		case 0:
			s.phase = 1
			return des.SleepFor(s.d)
		case 1:
			s.phase = 2
			if op := s.split; len(op.waiters) < s.c.Size()-1 {
				op.waiters = append(op.waiters, s.p)
				return des.Parked
			}
			s.c.publish(s.split)
		}
		if s.split.result == nil {
			return des.Parked
		}
		if s.round != splitFirst {
			return des.Done
		}
		s.got, s.round = s.split.result[s.me], splitLeaders
		color := Undefined
		if s.got != nil && s.got.Rank(s.p) == 0 {
			color = 0
		}
		s.stage(color, s.gen)
		s.phase = 1
	}
}
