package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hierknem/internal/des"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleFlowFullBandwidth(t *testing.T) {
	e := des.New()
	n := NewNet(e)
	link := n.NewResource("link", 100) // 100 B/s
	var doneAt float64 = -1
	n.Start(1000, 0, []*Resource{link}, func() { doneAt = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(doneAt, 10, 1e-9) {
		t.Fatalf("flow completed at %g, want 10", doneAt)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	e := des.New()
	n := NewNet(e)
	link := n.NewResource("link", 100)
	var t1, t2 float64 = -1, -1
	n.Start(500, 0, []*Resource{link}, func() { t1 = e.Now() })
	n.Start(500, 0, []*Resource{link}, func() { t2 = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Each gets 50 B/s: both finish at t=10.
	if !almost(t1, 10, 1e-9) || !almost(t2, 10, 1e-9) {
		t.Fatalf("completions at %g, %g; want 10, 10", t1, t2)
	}
}

func TestShortFlowReleasesBandwidth(t *testing.T) {
	e := des.New()
	n := NewNet(e)
	link := n.NewResource("link", 100)
	var tShort, tLong float64 = -1, -1
	n.Start(1000, 0, []*Resource{link}, func() { tLong = e.Now() })
	n.Start(200, 0, []*Resource{link}, func() { tShort = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Both at 50 B/s until short finishes at t=4 with long at 200 done;
	// long then runs at 100 B/s: 800 remaining -> 8 s more -> t=12.
	if !almost(tShort, 4, 1e-9) {
		t.Fatalf("short done at %g, want 4", tShort)
	}
	if !almost(tLong, 12, 1e-9) {
		t.Fatalf("long done at %g, want 12", tLong)
	}
}

func TestRateCapHonored(t *testing.T) {
	e := des.New()
	n := NewNet(e)
	link := n.NewResource("link", 100)
	var done float64 = -1
	n.Start(100, 10, []*Resource{link}, func() { done = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(done, 10, 1e-9) {
		t.Fatalf("capped flow done at %g, want 10", done)
	}
}

func TestCappedFlowLeavesHeadroomForOthers(t *testing.T) {
	e := des.New()
	n := NewNet(e)
	link := n.NewResource("link", 100)
	var tCapped, tFree float64 = -1, -1
	n.Start(100, 20, []*Resource{link}, func() { tCapped = e.Now() }) // 20 B/s
	n.Start(400, 0, []*Resource{link}, func() { tFree = e.Now() })    // gets 80 B/s
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(tCapped, 5, 1e-9) {
		t.Fatalf("capped done at %g, want 5", tCapped)
	}
	if !almost(tFree, 5, 1e-9) {
		t.Fatalf("free done at %g, want 5 (80 B/s while capped peer runs)", tFree)
	}
}

func TestMultiResourcePathBottleneck(t *testing.T) {
	e := des.New()
	n := NewNet(e)
	fast := n.NewResource("fast", 1000)
	slow := n.NewResource("slow", 10)
	var done float64 = -1
	n.Start(100, 0, []*Resource{fast, slow}, func() { done = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(done, 10, 1e-9) {
		t.Fatalf("done at %g, want 10 (limited by slow resource)", done)
	}
}

func TestPathMultiplicityDoublesConsumption(t *testing.T) {
	// A local copy that reads and writes the same memory bus appears twice
	// in the path and should run at half the bus bandwidth.
	e := des.New()
	n := NewNet(e)
	bus := n.NewResource("bus", 100)
	var done float64 = -1
	n.Start(100, 0, []*Resource{bus, bus}, func() { done = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(done, 2, 1e-9) {
		t.Fatalf("done at %g, want 2 (50 B/s effective)", done)
	}
}

func TestCrossTrafficOnSharedMiddleHop(t *testing.T) {
	e := des.New()
	n := NewNet(e)
	a := n.NewResource("a", 1000)
	b := n.NewResource("b", 1000)
	shared := n.NewResource("shared", 100)
	var ta, tb float64 = -1, -1
	n.Start(500, 0, []*Resource{a, shared}, func() { ta = e.Now() })
	n.Start(500, 0, []*Resource{b, shared}, func() { tb = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(ta, 10, 1e-9) || !almost(tb, 10, 1e-9) {
		t.Fatalf("done at %g,%g, want 10,10 (50 B/s each on shared hop)", ta, tb)
	}
}

func TestMaxMinUncongestionedFlowUnaffected(t *testing.T) {
	// Flow 1 crosses a congested resource; flow 2 is alone on another.
	e := des.New()
	n := NewNet(e)
	busy := n.NewResource("busy", 100)
	idle := n.NewResource("idle", 100)
	var tIdle float64 = -1
	for i := 0; i < 4; i++ {
		n.Start(1000, 0, []*Resource{busy}, nil)
	}
	n.Start(100, 0, []*Resource{idle}, func() { tIdle = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(tIdle, 1, 1e-9) {
		t.Fatalf("idle-path flow done at %g, want 1 (unaffected by congestion elsewhere)", tIdle)
	}
}

func TestZeroSizeFlowCompletesImmediately(t *testing.T) {
	e := des.New()
	n := NewNet(e)
	link := n.NewResource("link", 100)
	var done float64 = -1
	n.Start(0, 0, []*Resource{link}, func() { done = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 0 {
		t.Fatalf("zero-size flow done at %g, want 0", done)
	}
}

// panicText runs fn and returns what it panicked with, or "" if it returned.
func panicText(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// A rate cap is 0 or positive and finite, on every entry point, with a path
// or without one; a bad cap panics naming the value.
func TestInvalidRateCapPanics(t *testing.T) {
	e := des.New()
	n := NewNet(e)
	link := n.NewResource("link", 100)
	path := []*Resource{link}
	for _, rc := range []float64{math.NaN(), -1, math.Inf(1), math.Inf(-1)} {
		want := fmt.Sprintf("fabric: invalid flow rate cap %g", rc)
		for _, start := range []struct {
			name string
			fn   func()
		}{
			{"Start", func() { n.Start(10, rc, path, nil) }},
			{"Start pathless", func() { n.Start(10, rc, nil, nil) }},
			{"StartAfter", func() { n.StartAfter("net", 0, 10, rc, path, nil) }},
			{"StartAfterPath2", func() { n.StartAfterPath2("copy", 0, 10, rc, link, link, nil) }},
		} {
			if got := panicText(start.fn); got != want {
				t.Errorf("%s with cap %g: panic %q, want %q", start.name, rc, got, want)
			}
		}
	}
	if got := panicText(func() { n.Start(10, 0, nil, nil) }); got != "fabric: flow needs a path or a rate cap" {
		t.Errorf("pathless uncapped flow: panic %q", got)
	}
	if n.nFlows != 0 || e.Pending() != 0 {
		t.Fatalf("%d flows installed and %d events queued by rejected starts", n.nFlows, e.Pending())
	}
}

// StartAfterPath2 and StartAfter validate before they take a record: a
// rejected start leaves the free list as it was.
func TestStartAfterPath2RejectsBeforePopping(t *testing.T) {
	e := des.New()
	n := NewNet(e)
	bus := n.NewResource("bus", 100)
	for i := 0; i < 3; i++ {
		n.StartAfterPath2("copy", 0, 10, 0, bus, bus, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	pooled := len(n.flowPool)
	if pooled == 0 {
		t.Fatal("no record reached the free list")
	}
	for _, size := range []float64{-1, math.NaN()} {
		want := fmt.Sprintf("fabric: invalid flow size %g", size)
		for _, start := range []func(){
			func() { n.StartAfterPath2("copy", 0, size, 0, bus, bus, nil) },
			func() { n.StartAfter("copy", 1, size, 0, []*Resource{bus}, nil) },
		} {
			if got := panicText(start); got != want {
				t.Fatalf("size %g: panic %q, want %q", size, got, want)
			}
			if len(n.flowPool) != pooled {
				t.Fatalf("size %g: free list %d records, want %d", size, len(n.flowPool), pooled)
			}
		}
	}
}

func TestStartAfterDelaysFlow(t *testing.T) {
	e := des.New()
	n := NewNet(e)
	link := n.NewResource("link", 100)
	var done float64 = -1
	n.StartAfter("", 5, 100, 0, []*Resource{link}, func() { done = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(done, 6, 1e-9) {
		t.Fatalf("done at %g, want 6 (5 latency + 1 transfer)", done)
	}
}

// TestWarmStartAllocatesNothing: every flow is a record of the Net's free
// list, so once one has completed, starting the next — zero-delay Start, or
// a delayed StartAfter with its install event — allocates nothing.
func TestWarmStartAllocatesNothing(t *testing.T) {
	e := des.New()
	n := NewNet(e)
	path := []*Resource{n.NewResource("link", 100)}
	for name, start := range map[string]func(){
		"Start":      func() { n.Start(100, 0, path, nil) },
		"StartAfter": func() { n.StartAfter("net", 2, 100, 0, path, nil) },
	} {
		cycle := func() {
			start()
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
		cycle() // warm the flow, component and event free lists
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("warm %s allocates %v per flow, want 0", name, allocs)
		}
	}
}

func TestLeaderHotSpotVsDistributed(t *testing.T) {
	// The Figure-2 mechanism: K readers pulling from one leader's memory
	// bus take K times longer than K transfers spread over K buses.
	e := des.New()
	n := NewNet(e)
	leaderBus := n.NewResource("leader-bus", 100)
	const k = 8
	var lastHot float64
	for i := 0; i < k; i++ {
		n.Start(100, 0, []*Resource{leaderBus}, func() { lastHot = e.Now() })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(lastHot, k, 1e-9) {
		t.Fatalf("hot-spot completion %g, want %d", lastHot, k)
	}

	e2 := des.New()
	n2 := NewNet(e2)
	var lastCold float64
	for i := 0; i < k; i++ {
		bus := n2.NewResource("bus", 100)
		n2.Start(100, 0, []*Resource{bus}, func() { lastCold = e2.Now() })
	}
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(lastCold, 1, 1e-9) {
		t.Fatalf("distributed completion %g, want 1", lastCold)
	}
}

func TestBytesServedAccounting(t *testing.T) {
	e := des.New()
	n := NewNet(e)
	link := n.NewResource("link", 100)
	n.Start(300, 0, []*Resource{link}, nil)
	n.Start(200, 0, []*Resource{link}, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(link.BytesServed, 500, 1e-6) {
		t.Fatalf("BytesServed = %g, want 500", link.BytesServed)
	}
	if link.Utilization(e.Now()) < 0.99 {
		t.Fatalf("utilization %g, want ~1 (link saturated throughout)", link.Utilization(e.Now()))
	}
}

func TestSequentialFlowsChainViaCallback(t *testing.T) {
	// copy-in/copy-out: second copy starts when the first completes.
	e := des.New()
	n := NewNet(e)
	bus := n.NewResource("bus", 100)
	var done float64 = -1
	n.Start(100, 0, []*Resource{bus}, func() {
		n.Start(100, 0, []*Resource{bus}, func() { done = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(done, 2, 1e-9) {
		t.Fatalf("chained copies done at %g, want 2", done)
	}
}

// Property: with F equal flows on one link, each finishes at F*size/cap and
// total served bytes equals F*size.
func TestQuickEqualSharing(t *testing.T) {
	f := func(nf uint8, size16 uint16) bool {
		nFlows := int(nf%16) + 1
		size := float64(size16%1000) + 1
		e := des.New()
		n := NewNet(e)
		link := n.NewResource("link", 50)
		var last float64
		for i := 0; i < nFlows; i++ {
			n.Start(size, 0, []*Resource{link}, func() { last = e.Now() })
		}
		if err := e.Run(); err != nil {
			return false
		}
		want := float64(nFlows) * size / 50
		return almost(last, want, want*1e-6) &&
			almost(link.BytesServed, float64(nFlows)*size, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: max-min invariants on random topologies — no resource
// oversubscribed, and every flow is either capped or crosses at least one
// saturated resource (Pareto optimality of progressive filling).
func TestQuickMaxMinInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := des.New()
		n := NewNet(e)
		nRes := 2 + rng.Intn(5)
		res := make([]*Resource, nRes)
		for i := range res {
			res[i] = n.NewResource("r", 10+float64(rng.Intn(90)))
		}
		nFlows := 1 + rng.Intn(12)
		for i := 0; i < nFlows; i++ {
			pathLen := 1 + rng.Intn(3)
			path := make([]*Resource, pathLen)
			for j := range path {
				path[j] = res[rng.Intn(nRes)]
			}
			var capr float64
			if rng.Intn(3) == 0 {
				capr = 1 + float64(rng.Intn(50))
			}
			n.Start(1e6, capr, path, nil)
		}
		// The first sync assigns the rates at t=0; a zero-delay event
		// queued after it inspects them in the components.
		ok := true
		checked := 0
		e.After(0, func() {
			const tol = 1e-6
			// Independently recompute per-resource load from the flows.
			var flows []*flow
			for _, c := range n.comps {
				flows = append(flows, c.flows...)
			}
			checked = len(flows)
			load := make(map[*Resource]float64)
			for _, f := range flows {
				for _, r := range f.path {
					load[r] += f.rate
				}
			}
			for _, r := range res {
				if load[r] > r.Capacity*(1+tol) {
					ok = false
				}
			}
			for _, f := range flows {
				if f.rate <= 0 {
					ok = false
					continue
				}
				if f.rateCap > 0 && f.rate >= f.rateCap*(1-tol) {
					continue // capped: fine
				}
				saturated := false
				for _, r := range f.path {
					if load[r] >= r.Capacity*(1-tol) {
						saturated = true
						break
					}
				}
				if !saturated {
					ok = false
				}
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok && checked == nFlows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: conservation — total BytesServed on a single shared link equals
// the sum of all flow sizes regardless of arrival pattern.
func TestQuickConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := des.New()
		n := NewNet(e)
		link := n.NewResource("link", 100)
		total := 0.0
		nFlows := 1 + rng.Intn(10)
		for i := 0; i < nFlows; i++ {
			size := float64(1 + rng.Intn(500))
			delay := float64(rng.Intn(10))
			total += size
			n.StartAfter("", delay, size, 0, []*Resource{link}, nil)
		}
		if err := e.Run(); err != nil {
			return false
		}
		return almost(link.BytesServed, total, 1e-3*total+1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
