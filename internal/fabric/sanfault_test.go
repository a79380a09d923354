package fabric

// Seeded-fault fixtures for the hiersan pool-provenance checker on the
// component-shell free list: a shell recycled twice and a shell recycled
// while the partition still lists it must both fire, naming the component.

import (
	"strings"
	"testing"

	"hierknem/internal/des"
	"hierknem/internal/san"
)

// collectSan attaches a sanitizer whose violations are collected instead of
// panicking.
func collectSan(n *Net) *[]string {
	var got []string
	s := san.New(n.eng.Now)
	s.SetOnViolation(func(msg string) { got = append(got, msg) })
	n.SetSanitizer(s)
	return &got
}

func TestSanitizerCatchesComponentDoubleRecycle(t *testing.T) {
	n := NewNet(des.New())
	got := collectSan(n)
	n.removeComp(n.allocComponent()) // component 0: a clean life, for contrast
	c := n.allocComponent()
	n.removeComp(c)
	n.retired = append(n.retired, c) // planted fault: retired twice
	n.recycleRetired()
	if len(*got) != 1 || !strings.Contains((*got)[0], "double release of fabric.component") {
		t.Fatalf("violations = %q, want exactly one double release of fabric.component", *got)
	}
	if !strings.Contains((*got)[0], "component 1") {
		t.Fatalf("violation %q does not name the component", (*got)[0])
	}
}

func TestSanitizerCatchesRecycleOfListedComponent(t *testing.T) {
	n := NewNet(des.New())
	got := collectSan(n)
	n.removeComp(n.allocComponent())
	c := n.allocComponent()
	n.retired = append(n.retired, c) // planted fault: never left n.comps
	n.recycleRetired()
	if len(*got) != 1 || !strings.Contains((*got)[0], "use after release of fabric.component") {
		t.Fatalf("violations = %q, want exactly one use after release of fabric.component", *got)
	}
	if !strings.Contains((*got)[0], "component 1") {
		t.Fatalf("violation %q does not name the component", (*got)[0])
	}
	if n.comps[c.cpos] != c {
		t.Fatal("fixture broken: the shell was not listed when it was recycled")
	}
}
