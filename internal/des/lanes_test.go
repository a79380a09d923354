package des

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The tests in this file check the fixed-delay lanes and stepped waits
// against a heap-only, process-style reference: the same random program,
// run once as shipped and once with every lane held by a blocker event (so
// each future event goes through the heap) and every stepped wait done as
// plain Sleep and Park calls on the process, must dispatch the same events
// in the same order, at the same sequence numbers, with the same Processed.

// Script operations.
const (
	opSleep = iota
	opAfter
	opAt
	opCancel
	opWake
	opPark
	opSteps
	numOps
)

type scriptOp struct {
	kind  int
	d     float64
	k     int    // wake target / timer index
	waits []Wait // opSteps
}

func script(rng *rand.Rand, nprocs int) [][]scriptOp {
	// Most delays come from a palette, so that lanes fill, drain and
	// change hands; the rest are irregular.
	palette := []float64{0, 0.25, 0.5, 1, 1.5, 2, 3.75}
	delay := func() float64 {
		if rng.Intn(5) == 0 {
			return float64(rng.Intn(1000)) / 97
		}
		return palette[rng.Intn(len(palette))]
	}
	s := make([][]scriptOp, nprocs)
	for i := range s {
		for j := 8 + rng.Intn(12); j > 0; j-- {
			op := scriptOp{kind: rng.Intn(numOps), d: delay(), k: rng.Intn(64)}
			if op.kind == opSteps {
				for n := 1 + rng.Intn(4); n > 0; n-- {
					if rng.Intn(3) == 0 {
						op.waits = append(op.waits, Parked)
					} else {
						op.waits = append(op.waits, SleepFor(delay()))
					}
				}
			}
			s[i] = append(s[i], op)
		}
	}
	return s
}

// scriptSteps runs a scripted wait sequence as a Stepper, logging each step.
type scriptSteps struct {
	log   func(string)
	waits []Wait
	i     int
}

func (s *scriptSteps) Step(*Proc) Wait {
	s.log(fmt.Sprintf("step %d", s.i))
	if s.i == len(s.waits) {
		return Done
	}
	s.i++
	return s.waits[s.i-1]
}

// runScript runs the program of seed and returns its dispatch log. With
// reference set, blockers hold every lane and stepped waits run
// process-style.
func runScript(seed int64, reference bool) (string, *Engine) {
	rng := rand.New(rand.NewSource(seed))
	e := New()
	var b strings.Builder
	log := func(what string) {
		fmt.Fprintf(&b, "%g %d %d %s\n", e.now, e.seq, e.Pending(), what)
	}
	// Blockers: one far-future event per lane, scheduled first in both
	// runs. The reference's take the lanes for the whole program; the
	// others sit in the heap at the same times and sequence numbers.
	for i := 0; i < numLanes; i++ {
		d := 1e9 + float64(i)
		if reference {
			e.After(d, func() { log("blocker") })
		} else {
			e.At(d, func() { log("blocker") })
		}
	}
	nprocs := 2 + rng.Intn(5)
	prog := script(rng, nprocs)
	procs := make([]*Proc, nprocs)
	var timers []Timer
	callback := func(name string, k int) func() {
		return func() {
			log(name)
			if k%3 == 0 {
				procs[k%nprocs].Wake()
			}
		}
	}
	for i := range procs {
		ops := prog[i]
		procs[i] = e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j, op := range ops {
				name := fmt.Sprintf("p%d op%d", i, j)
				log(name)
				switch op.kind {
				case opSleep:
					p.Sleep(op.d)
				case opAfter:
					timers = append(timers, e.After(op.d, callback(name+" after", op.k)))
				case opAt:
					timers = append(timers, e.At(e.Now()+op.d, callback(name+" at", op.k)))
				case opCancel:
					if len(timers) > 0 {
						timers[op.k%len(timers)].Cancel()
					}
				case opWake:
					procs[op.k%nprocs].Wake()
				case opPark:
					p.Park()
				case opSteps:
					s := &scriptSteps{log: log, waits: op.waits}
					if !reference {
						p.Steps(s)
						break
					}
					for w := s.Step(p); w != Done; w = s.Step(p) {
						if w == Parked {
							p.Park()
						} else {
							p.Sleep(float64(w))
						}
					}
				}
			}
			log(fmt.Sprintf("p%d exits", i))
		})
	}
	err := e.Run()
	fmt.Fprintf(&b, "end %g processed %d err %v\n", e.Now(), e.Processed(), err)
	return b.String(), e
}

func TestLanesAndStepsMatchHeapOnlyReference(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 60
	}
	var lanePushes, refPushes uint64
	for seed := int64(0); seed < int64(seeds); seed++ {
		got, e := runScript(seed, false)
		want, ref := runScript(seed, true)
		if got != want {
			g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := range min(len(g), len(w)) {
				if g[i] != w[i] {
					t.Fatalf("seed %d: line %d: lanes and steps %q, heap-only reference %q", seed, i, g[i], w[i])
				}
			}
			t.Fatalf("seed %d: logs differ in length: %d and %d lines", seed, len(g), len(w))
		}
		lanePushes += e.heapPushes
		refPushes += ref.heapPushes
	}
	// The comparison is vacuous unless the shipped runs used the lanes. The
	// palette has more delays than there are lanes, so the heap keeps some.
	if lanePushes*4 > refPushes*3 {
		t.Fatalf("heap pushes: %d with lanes, %d heap-only; the lanes took too little", lanePushes, refPushes)
	}
}

// TestLaneCancelUnlinks pins lane bookkeeping: cancelling the head, middle
// and tail of a lane unlinks each at once, and the rest fire in order.
func TestLaneCancelUnlinks(t *testing.T) {
	e := New()
	var fired []int
	var tm [5]Timer
	for i := range tm {
		i := i
		e.At(float64(i), func() {
			tm[i] = e.After(10, func() { fired = append(fired, i) })
		})
	}
	e.At(4.5, func() {
		if e.laneLive != 5 {
			t.Errorf("laneLive = %d, want 5", e.laneLive)
		}
		for _, i := range []int{0, 2, 4} {
			before := e.PoolSize()
			tm[i].Cancel()
			if e.PoolSize() != before+1 {
				t.Errorf("cancel %d: pool %d, want %d", i, e.PoolSize(), before+1)
			}
		}
		if e.Pending() != 2 {
			t.Errorf("Pending() = %d, want 2", e.Pending())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(fired) != "[1 3]" {
		t.Fatalf("fired %v, want [1 3]", fired)
	}
}
