package des

import (
	"testing"

	"hierknem/internal/san"
)

// waitsThen is a Stepper that takes the given suspensions, then runs then
// (in whatever context the last resume left it) and reports Done.
type waitsThen struct {
	waits []Wait
	then  func()
}

func (s *waitsThen) Step(*Proc) Wait {
	if len(s.waits) == 0 {
		if s.then != nil {
			s.then()
		}
		return Done
	}
	w := s.waits[0]
	s.waits = s.waits[1:]
	return w
}

// TestSteppedParkConsumesItsWake: the Wake that resumes a stepped park is
// used up by it, as the one that resumes Park is. A wake left latched would
// let the process's next Park return at once.
func TestSteppedParkConsumesItsWake(t *testing.T) {
	e := New()
	var steps, park float64
	a := e.Spawn("a", func(p *Proc) {
		p.Steps(&waitsThen{waits: []Wait{Parked}})
		steps = p.Now()
		p.Park()
		park = p.Now()
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(1)
		a.Wake()
		p.Sleep(1)
		a.Wake()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 1 || park != 2 {
		t.Fatalf("stepped park ended at %g and the next Park at %g, want 1 and 2", steps, park)
	}
}

// TestSteppedWakeIsASyncEdge: a Step run in engine context runs with its
// process as the engine's current process, so a Wake it issues records
// hiersan's sync edge from that process, as a Wake from its body would.
// Without the edge, b's write at t=1 conflicts with a's read closed at t=1.
func TestSteppedWakeIsASyncEdge(t *testing.T) {
	e := New()
	s := san.New(e.Now)
	var violations []string
	s.SetOnViolation(func(msg string) { violations = append(violations, msg) })
	e.SetSanitizer(s)
	b := e.Spawn("b", func(p *Proc) {
		p.Park()
		s.EndAccess(s.BeginAccess(p.ID(), "b", 1, 0, 8, true))
	})
	e.Spawn("a", func(p *Proc) {
		p.Steps(&waitsThen{waits: []Wait{SleepFor(1)}, then: func() {
			s.EndAccess(s.BeginAccess(p.ID(), "a", 1, 0, 8, false))
			b.Wake()
		}})
	})
	// An earlier event keeps a's sleep off the lone-runner fast path, so
	// the Step after it runs in engine context.
	e.At(0.5, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(violations) > 0 {
		t.Fatalf("a wake from an engine-context step recorded no sync edge: %s", violations[0])
	}
}
