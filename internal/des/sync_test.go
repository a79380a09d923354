package des

import (
	"testing"
)

func TestAwaitCompletesAfterCallback(t *testing.T) {
	e := New()
	var resumedAt float64 = -1
	e.Spawn("w", func(p *Proc) {
		e.After(3, AwaitBegin(p))
		AwaitEnd(p)
		resumedAt = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if resumedAt != 3 {
		t.Fatalf("resumed at %g, want 3", resumedAt)
	}
}

func TestAwaitImmediateCompletion(t *testing.T) {
	// The callback may fire before AwaitEnd (zero-duration activity).
	e := New()
	finished := false
	e.Spawn("w", func(p *Proc) {
		done := AwaitBegin(p)
		done() // immediate: the wake is latched
		AwaitEnd(p)
		finished = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !finished {
		t.Fatal("AwaitEnd never returned")
	}
}

// TestAwaitOutlastsOtherWakes: a Wake that is not the awaited completion
// resumes the process, but AwaitEnd parks it again until the completion.
func TestAwaitOutlastsOtherWakes(t *testing.T) {
	e := New()
	var resumedAt float64 = -1
	w := e.Spawn("w", func(p *Proc) {
		e.After(5, AwaitBegin(p))
		AwaitEnd(p)
		resumedAt = p.Now()
	})
	e.At(2, w.Wake)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if resumedAt != 5 {
		t.Fatalf("resumed at %g, want 5 (the completion, not the stray wake)", resumedAt)
	}
}

func TestAwaitSequentialActivities(t *testing.T) {
	e := New()
	var marks []float64
	e.Spawn("w", func(p *Proc) {
		for i := 0; i < 3; i++ {
			e.After(2, AwaitBegin(p))
			AwaitEnd(p)
			marks = append(marks, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 4, 6}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestCancelTimerWhileRunning(t *testing.T) {
	e := New()
	fired := false
	var tm Timer
	tm = e.After(5, func() { fired = true })
	e.After(1, func() { tm.Cancel() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if e.Now() != 5 {
		// The cancelled event still advances the queue pop but must not run.
		t.Logf("final time %g", e.Now())
	}
}

func TestSpawnStorm(t *testing.T) {
	// Processes spawning processes spawning processes — the engine must
	// drain them all deterministically.
	e := New()
	count := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		e.Spawn("s", func(p *Proc) {
			p.Sleep(0.001)
			count++
			if depth < 5 {
				spawn(depth + 1)
				spawn(depth + 1)
			}
		})
	}
	spawn(0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 63 { // 2^6 - 1 nodes of the spawn tree
		t.Fatalf("count = %d, want 63", count)
	}
}
