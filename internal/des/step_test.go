package des

import "testing"

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
