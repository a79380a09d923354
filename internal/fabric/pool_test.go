package fabric

import (
	"fmt"
	"slices"
	"testing"

	"hierknem/internal/des"
)

// Tests for the recycling itself: component shells, the split scratch and
// the interned traffic classes. Every Net here runs with the shadow checker
// armed (nil handler: a mismatch panics).

func newShadowNet() (*des.Engine, *Net) {
	eng := des.New()
	net := NewNet(eng)
	net.enableShadow(nil)
	return eng, net
}

// TestWarmChurnCycleAllocatesNothing drives merge -> split -> complete on a
// Reset Net: single-link flows (two of them twins in one bundle), a bridging
// flow that merges their components and finishes first (its bundle dies and
// splits them again), then the rest, among them two two-resource twins.
func TestWarmChurnCycleAllocatesNothing(t *testing.T) {
	eng, net := newShadowNet()
	a := net.NewResource("a", 100)
	b := net.NewResource("b", 100)
	pa, pb, pab := []*Resource{a}, []*Resource{b}, []*Resource{a, b}
	peak := 0
	sample := func() { peak = max(peak, MaxBundle(net)) }
	cycle := func() {
		eng.Reset()
		net.Reset()
		net.StartAfter("copy", 0, 400, 0, pa, nil)
		net.StartAfter("copy", 0, 300, 0, pa, nil)
		net.StartAfter("copy", 0, 600, 0, pb, nil)
		net.StartAfter("net", 1, 50, 0, pab, nil)
		net.StartAfterPath2("compute", 2, 100, 30, a, a, nil)
		net.StartAfterPath2("compute", 2, 80, 30, a, a, nil)
		eng.At(2, sample)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	cycle()
	st := net.Stats()
	if st.Merges == 0 || st.Splits == 0 || st.Completions != 6 || st.Components != 0 || peak != 2 {
		t.Fatalf("cycle does not churn as intended (peak bundle %d): %v", peak, st)
	}
	bundles := len(net.bundlePool)
	if bundles == 0 {
		t.Fatal("no bundle record reached the free list")
	}
	// The shadow checker builds maps on every sync; it vouched for the
	// warm-up cycles above and steps aside for the count.
	net.afterSync = nil
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("warm churn cycle allocates %v per run, want 0", n)
	}
	if got := net.Stats(); got != st {
		t.Fatalf("counted cycle diverged from the warm-up:\n  got  %v\n  want %v", got, st)
	}
	if got := len(net.bundlePool); got != bundles {
		t.Fatalf("bundle free list holds %d records after the counted cycles, %d after warm-up", got, bundles)
	}
}

// TestAbsorbedDirtyShellIsNotReusedEarly pins the retirement rule. X (armed
// timer, queued dirty) is absorbed by Y, and a flow on an idle link needs a
// shell in the same instant: it must not get X's, which the dirty queue
// still lists. After the sync X's shell is free; its next occupant must see
// its own timer, and X's old timer (armed for t=1e4, which no later deadline
// of the run falls on) must be gone from the engine.
func TestAbsorbedDirtyShellIsNotReusedEarly(t *testing.T) {
	eng, net := newShadowNet()
	a := net.NewResource("a", 100)
	b := net.NewResource("b", 100)
	c := net.NewResource("c", 100)
	d := net.NewResource("d", 100)
	var fired []float64

	net.Start(1e6, 0, []*Resource{a}, nil) // X: alone it would finish at t=1e4
	var x, z *component
	eng.At(1, func() {
		x = a.comp
		if x.timer.Stopped() || x.timerAt != 1e4 {
			t.Fatalf("X timer armed=%v at %g, want armed at 1e4", !x.timer.Stopped(), x.timerAt)
		}
		inner := x.timerFn
		x.timerFn = func() {
			fired = append(fired, eng.Now())
			inner()
		}
		stale := x.timer // armed with the original body, not the wrapper
		before := net.Stats()
		net.Start(1000, 0, []*Resource{a}, nil) // X queued dirty: 2 flows, 1 link
		for i := 0; i < 3; i++ {
			net.Start(1000, 0, []*Resource{b}, nil) // Y: 3 flows, 1 link
		}
		net.Start(1000, 0, []*Resource{b, a}, nil) // Y absorbs X
		if !x.dead || a.comp != b.comp || a.comp == x {
			t.Fatal("X was not absorbed into Y")
		}
		net.Start(100, 0, []*Resource{c}, nil)
		z = c.comp
		if z == x {
			t.Fatal("X's shell was reused while the dirty queue still lists it")
		}
		eng.At(1, func() { // same instant, after the sync event
			got := net.Stats()
			if got.Syncs != before.Syncs+1 || got.Fills != before.Fills+2 {
				t.Fatalf("one sync with two fills (Y, Z) expected, got syncs +%d fills +%d",
					got.Syncs-before.Syncs, got.Fills-before.Fills)
			}
			if !stale.Stopped() {
				t.Fatal("X's timer for t=1e4 is still queued after X was absorbed")
			}
			if k := len(net.compPool); k == 0 || net.compPool[k-1] != x {
				t.Fatal("X's shell did not reach the free list after the sync")
			}
			net.Start(50, 0, []*Resource{d}, nil) // finishes at t=1.5 on X's shell
			if d.comp != x {
				t.Fatal("the next component did not reuse X's shell")
			}
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) == 0 || fired[0] != 1.5 || slices.Contains(fired, 1e4) {
		t.Fatalf("X's shell fired its timer at %v, want its second occupant's first, at 1.5, and never X's at 1e4", fired)
	}
}

// TestResetReplayWithWarmPool replays the three equivalence workloads on a
// Reset Net whose free lists the first run filled: the hex log and the
// allocator counters must equal the fresh Net's.
func TestResetReplayWithWarmPool(t *testing.T) {
	cases := []struct {
		name  string
		nodes int
		body  func(c *testCluster, rec recorder)
	}{
		{"fig3-tree", 16, treeBcast(4, 512<<10)},
		{"fig5-ring", 12, ringPipeline(6, 256<<10)},
		{"table2-churn", 8, randomChurn(42, 240)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, false, tc.nodes, false)
			run := func() ([]string, RecomputeStats) {
				var log []string
				tc.body(c, func(format string, args ...any) {
					log = append(log, fmt.Sprintf(format, args...))
				})
				if err := c.eng.Run(); err != nil {
					t.Fatal(err)
				}
				log = append(log, "end t="+ts(c.eng.Now()))
				return log, c.net.Stats()
			}
			fresh, freshStats := run()
			if len(c.net.compPool) == 0 {
				t.Fatal("the first run left no shell in the free list")
			}
			c.eng.Reset()
			c.net.Reset()
			warm, warmStats := run()
			if len(fresh) != len(warm) {
				t.Fatalf("log length differs: fresh %d, warm %d", len(fresh), len(warm))
			}
			for i := range fresh {
				if fresh[i] != warm[i] {
					t.Fatalf("event %d differs:\n  fresh: %s\n  warm:  %s", i, fresh[i], warm[i])
				}
			}
			if freshStats != warmStats {
				t.Fatalf("counters differ:\n  fresh: %v\n  warm:  %v", freshStats, warmStats)
			}
		})
	}
}

func TestClassInterning(t *testing.T) {
	eng, net := newShadowNet()
	r1 := net.NewResource("r1", 100)
	r2 := net.NewResource("r2", 100)
	r3 := net.NewResource("r3", 100)
	run := func() {
		net.StartAfter("a", 0, 100, 0, []*Resource{r1}, nil) // [0,1]
		net.StartAfter("b", 0, 200, 0, []*Resource{r2}, nil) // [0,2]
		net.StartAfter("c", 1, 200, 0, []*Resource{r3}, nil) // [1,3]
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		for _, w := range []struct {
			a, b string
			want float64
		}{{"a", "b", 1}, {"b", "c", 1}, {"a", "c", 0}, {"a", "a", 0}, {"a", "unseen", 0}, {"unseen", "other", 0}} {
			ab, ba := net.OverlapTime(w.a, w.b), net.OverlapTime(w.b, w.a)
			if ab != w.want || ba != ab {
				t.Fatalf("OverlapTime(%s,%s)=%g, reversed %g, want %g", w.a, w.b, ab, ba, w.want)
			}
		}
		for class, want := range map[string]float64{"a": 1, "b": 2, "c": 2, "unseen": 0, "": 0} {
			if got := net.ClassBusyTime(class); got != want {
				t.Fatalf("ClassBusyTime(%q)=%g, want %g", class, got, want)
			}
		}
	}
	run()
	eng.Reset()
	net.Reset()
	if len(net.classNames) != 3 || net.classIndex("b") != 1 {
		t.Fatalf("interned names did not survive Reset: %q", net.classNames)
	}
	for _, class := range []string{"a", "b", "c"} {
		if got := net.ClassBusyTime(class); got != 0 {
			t.Fatalf("ClassBusyTime(%q)=%g after Reset, want 0", class, got)
		}
	}
	if got := net.OverlapTime("a", "b"); got != 0 {
		t.Fatalf("OverlapTime(a,b)=%g after Reset, want 0", got)
	}
	run() // the integrals restart from zero on the surviving indices
}
