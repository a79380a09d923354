package fabric

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"hierknem/internal/des"
)

// These tests drive the fabric with collective-shaped workloads (the tree
// broadcast of Figure 3, the ring pipeline of Figure 5, and a Table II-style
// random churn) incrementally and with refillAll and require the two
// runs to be indistinguishable in virtual time: every completion fires at
// the bit-identical instant, in the same order, with the same rates. The
// shadow checker is armed in both runs, so every sync is also cross-checked
// against a from-scratch partition and refill.

// ts renders a float64 exactly (hex mantissa), so string comparison of the
// event logs is bit comparison of the times.
func ts(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

// testCluster is a hand-built fabric shaped like the simulator's clusters:
// per node a memory bus and a full-duplex NIC, plus an optional shared
// backplane (Stremi and Parapluie have none, which is what makes distinct
// node pairs distinct components).
type testCluster struct {
	eng         *des.Engine
	net         *Net
	mem, tx, rx []*Resource
	bp          *Resource
}

func newTestCluster(t testing.TB, refillAll bool, nodes int, backplane bool) *testCluster {
	eng := des.New()
	net := NewNet(eng)
	net.refillAll = refillAll
	net.enableShadow(func(format string, args ...any) {
		t.Fatalf("shadow mismatch (refillAll=%v): %s", refillAll, fmt.Sprintf(format, args...))
	})
	c := &testCluster{eng: eng, net: net}
	for i := 0; i < nodes; i++ {
		c.mem = append(c.mem, net.NewResource(fmt.Sprintf("n%d/mem", i), 8e9))
		c.tx = append(c.tx, net.NewResource(fmt.Sprintf("n%d/nic-tx", i), 1.25e9))
		c.rx = append(c.rx, net.NewResource(fmt.Sprintf("n%d/nic-rx", i), 1.25e9))
	}
	if backplane {
		c.bp = net.NewResource("backplane", 5e9)
	}
	return c
}

func (c *testCluster) netPath(src, dst int) []*Resource {
	if c.bp != nil {
		return []*Resource{c.tx[src], c.bp, c.rx[dst]}
	}
	return []*Resource{c.tx[src], c.rx[dst]}
}

type recorder func(format string, args ...any)

// runWorkload builds a cluster (refilling everything on every sync when
// refillAll is set), lets body schedule its flows, runs to completion and
// returns the event log and allocator stats.
func runWorkload(t *testing.T, refillAll bool, nodes int, backplane bool,
	body func(c *testCluster, rec recorder)) ([]string, RecomputeStats, *testCluster) {
	t.Helper()
	c := newTestCluster(t, refillAll, nodes, backplane)
	var events []string
	rec := func(format string, args ...any) {
		events = append(events, fmt.Sprintf(format, args...))
	}
	body(c, rec)
	if err := c.eng.Run(); err != nil {
		t.Fatalf("refillAll=%v: %v", refillAll, err)
	}
	return events, c.net.Stats(), c
}

// requireEquivalent runs body both ways and asserts bit-identical
// virtual behavior plus tolerance-checked byte integrals.
func requireEquivalent(t *testing.T, nodes int, backplane bool,
	body func(c *testCluster, rec recorder)) (inc, glob RecomputeStats) {
	t.Helper()
	evInc, stInc, cInc := runWorkload(t, false, nodes, backplane, body)
	evGlob, stGlob, cGlob := runWorkload(t, true, nodes, backplane, body)

	if len(evInc) == 0 {
		t.Fatal("workload recorded no events")
	}
	if len(evInc) != len(evGlob) {
		t.Fatalf("event count differs: incremental %d, global %d", len(evInc), len(evGlob))
	}
	for i := range evInc {
		if evInc[i] != evGlob[i] {
			t.Fatalf("event %d differs:\n  incremental: %s\n  global:      %s", i, evInc[i], evGlob[i])
		}
	}
	if a, b := cInc.eng.Now(), cGlob.eng.Now(); a != b {
		t.Fatalf("finish time differs: incremental %s, global %s", ts(a), ts(b))
	}
	if a, b := cInc.eng.Processed(), cGlob.eng.Processed(); a != b {
		t.Fatalf("processed event count differs: incremental %d, global %d", a, b)
	}
	if stInc.Completions != stGlob.Completions {
		t.Fatalf("completions differ: incremental %d, global %d", stInc.Completions, stGlob.Completions)
	}

	// Class-activity integrals advance at attach/detach instants, which are
	// identical between modes, so they must match bit-for-bit.
	for _, class := range []string{"net", "copy"} {
		if a, b := cInc.net.ClassBusyTime(class), cGlob.net.ClassBusyTime(class); a != b {
			t.Fatalf("class %q busy time differs: incremental %s, global %s", class, ts(a), ts(b))
		}
	}
	if a, b := cInc.net.OverlapTime("net", "copy"), cGlob.net.OverlapTime("net", "copy"); a != b {
		t.Fatalf("overlap time differs: incremental %s, global %s", ts(a), ts(b))
	}

	// Byte and busy-time integrals telescope over different sub-intervals
	// (refillAll integrates every resource at every sync), so they agree
	// only up to rounding.
	ri, rg := cInc.net.Resources(), cGlob.net.Resources()
	if len(ri) != len(rg) {
		t.Fatalf("resource count differs: %d vs %d", len(ri), len(rg))
	}
	for i := range ri {
		if ri[i].Name != rg[i].Name {
			t.Fatalf("resource order differs at %d: %q vs %q", i, ri[i].Name, rg[i].Name)
		}
		if !withinRel(ri[i].BytesServed, rg[i].BytesServed, 1e-9) {
			t.Fatalf("resource %q bytes served differ: incremental %g, global %g",
				ri[i].Name, ri[i].BytesServed, rg[i].BytesServed)
		}
		if !withinRel(ri[i].BusyTime, rg[i].BusyTime, 1e-9) {
			t.Fatalf("resource %q busy time differs: incremental %g, global %g",
				ri[i].Name, ri[i].BusyTime, rg[i].BusyTime)
		}
	}

	if stInc.Syncs == 0 || stGlob.Syncs == 0 {
		t.Fatal("shadow never ran: no syncs recorded")
	}
	if stInc.ResourceVisits > stGlob.ResourceVisits {
		t.Fatalf("incremental mode visited more resources (%d) than global (%d)",
			stInc.ResourceVisits, stGlob.ResourceVisits)
	}
	return stInc, stGlob
}

// binomialChildren returns r's children in a binomial broadcast tree rooted
// at 0: r + 2^j for every 2^j above r's highest set bit.
func binomialChildren(r, n int) []int {
	hsb := 0
	for m := 1; m <= r; m <<= 1 {
		if r&m != 0 {
			hsb = m
		}
	}
	start := 1
	if hsb > 0 {
		start = hsb << 1
	}
	var ch []int
	for m := start; r+m < n; m <<= 1 {
		ch = append(ch, r+m)
	}
	return ch
}

// treeBcast is the Figure 3 shape: a segmented binomial-tree broadcast where
// every received segment is unpacked through the receiver's memory bus while
// the NIC forwards the next one.
func treeBcast(nsegs int, segSize float64) func(c *testCluster, rec recorder) {
	return func(c *testCluster, rec recorder) {
		n := len(c.mem)
		have := make([]int, n) // prefix count of segments held
		have[0] = nsegs
		type link struct {
			next int
			busy bool
		}
		links := map[[2]int]*link{}
		var try func(p, ch int)
		try = func(p, ch int) {
			key := [2]int{p, ch}
			lk := links[key]
			if lk == nil {
				lk = &link{}
				links[key] = lk
			}
			if lk.busy || lk.next >= nsegs || lk.next >= have[p] {
				return
			}
			s := lk.next
			lk.busy = true
			c.net.StartAfter("net", 0, segSize, 0, c.netPath(p, ch), func() {
				lk.busy = false
				lk.next++
				rec("net %d->%d seg=%d t=%s", p, ch, s, ts(c.eng.Now()))
				c.net.StartAfter("copy", 0, segSize, 0, []*Resource{c.mem[ch]}, func() {
					rec("copy node=%d seg=%d t=%s", ch, s, ts(c.eng.Now()))
					have[ch]++
					for _, g := range binomialChildren(ch, n) {
						try(ch, g)
					}
				})
				try(p, ch)
			})
		}
		for _, ch := range binomialChildren(0, n) {
			try(0, ch)
		}
	}
}

// ringPipeline is the Figure 5 shape: segments stream down a node chain,
// each hop's NIC transfer chased by a local unpack copy.
func ringPipeline(nsegs int, segSize float64) func(c *testCluster, rec recorder) {
	return func(c *testCluster, rec recorder) {
		n := len(c.mem)
		have := make([]int, n)
		have[0] = nsegs
		sending := make([]bool, n)
		sent := make([]int, n)
		var pump func(i int)
		pump = func(i int) {
			if i >= n-1 || sending[i] || sent[i] >= nsegs || sent[i] >= have[i] {
				return
			}
			s := sent[i]
			sending[i] = true
			sent[i]++
			c.net.StartAfter("net", 0, segSize, 0, c.netPath(i, i+1), func() {
				rec("net %d->%d seg=%d t=%s", i, i+1, s, ts(c.eng.Now()))
				sending[i] = false
				c.net.StartAfter("copy", 0, segSize, 0, []*Resource{c.mem[i+1]}, func() {
					rec("copy node=%d seg=%d t=%s", i+1, s, ts(c.eng.Now()))
					have[i+1]++
					pump(i + 1)
				})
				pump(i)
			})
		}
		pump(0)
	}
}

// randomChurn is the Table II shape: an application-like mix of intra-node
// copies and inter-node transfers with staggered starts. A few flows start a
// follow-on on the same path when they complete, after a short gap and at a
// quarter of their size, so completions keep starting flows mid-churn.
func randomChurn(seed int64, flows int) func(c *testCluster, rec recorder) {
	return func(c *testCluster, rec recorder) {
		rng := rand.New(rand.NewSource(seed))
		n := len(c.mem)
		for k := 0; k < flows; k++ {
			k := k
			at := rng.Float64() * 0.02
			size := float64(1<<10 + rng.Intn(1<<20))
			var path []*Resource
			class := "net"
			if rng.Intn(3) == 0 {
				class = "copy"
				path = []*Resource{c.mem[rng.Intn(n)]}
			} else {
				i := rng.Intn(n)
				j := rng.Intn(n - 1)
				if j >= i {
					j++
				}
				path = c.netPath(i, j)
			}
			chain := k%17 == 0
			c.eng.At(at, func() {
				c.net.StartAfter(class, 0, size, 0, path, func() {
					rec("done k=%d t=%s", k, ts(c.eng.Now()))
					if chain {
						c.net.StartAfter(class, 0.0004, size/4, 0, path, func() {
							rec("follow-on k=%d t=%s", k, ts(c.eng.Now()))
						})
					}
				})
			})
		}
	}
}

// bundleChurn draws its flows from a few paths and caps, so bundles of many
// twins are the rule, as when many cores copy over one bus pair at one
// per-core cap. It mixes in follow-on flows started by completions after a
// short gap, a path that lists one resource twice, pathless capped flows,
// zero-size flows, and two-resource flows whose path buffers are reused
// while their twins are still in flight. peak receives the largest bundle
// seen at any start.
func bundleChurn(seed int64, flows int, peak *int) func(c *testCluster, rec recorder) {
	return func(c *testCluster, rec recorder) {
		rng := rand.New(rand.NewSource(seed))
		netPaths := [][]*Resource{c.netPath(0, 1), c.netPath(1, 0), c.netPath(2, 3), {c.mem[3], c.tx[3], c.rx[0]}}
		copies := [][2]*Resource{{c.mem[0], c.mem[1]}, {c.mem[1], c.mem[1]}, {c.mem[2], c.mem[0]}}
		caps := []float64{0, 2e9, 3e8}
		for k := 0; k < flows; k++ {
			k := k
			at := rng.Float64() * 0.01
			size := float64(1<<10 + rng.Intn(1<<19))
			if rng.Intn(20) == 0 {
				size = 0
			}
			rc := caps[rng.Intn(len(caps))]
			kind := rng.Intn(10)
			pick := rng.Int()
			chain := rng.Intn(8) == 0
			c.eng.At(at, func() {
				var start func(delay float64, done func())
				switch {
				case kind == 0:
					start = func(delay float64, done func()) {
						c.net.StartAfter("compute", delay, size, 1e8+rc, nil, done)
					}
				case kind <= 4:
					p := copies[pick%len(copies)]
					start = func(delay float64, done func()) {
						c.net.StartAfterPath2("copy", delay, size, rc, p[0], p[1], done)
					}
				default:
					path := netPaths[pick%len(netPaths)]
					start = func(delay float64, done func()) {
						c.net.StartAfter("net", delay, size, rc, path, done)
					}
				}
				start(0, func() {
					rec("done k=%d t=%s", k, ts(c.eng.Now()))
					if chain {
						start(2e-4, func() { rec("follow-on k=%d t=%s", k, ts(c.eng.Now())) })
					}
				})
				*peak = max(*peak, MaxBundle(c.net))
			})
		}
	}
}

func TestEquivalenceBundleChurn(t *testing.T) {
	for _, seed := range []int64{3, 7, 2012} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			peak := 0
			inc, _ := requireEquivalent(t, 4, false, bundleChurn(seed, 400, &peak))
			if peak < 8 {
				t.Errorf("largest bundle held %d flows; the row should make twins common", peak)
			}
			if inc.Repartitions >= inc.Completions {
				t.Errorf("%d repartitions for %d completions: departures that leave a twin behind should not re-partition",
					inc.Repartitions, inc.Completions)
			}
			t.Logf("peak bundle %d; incremental: %v", peak, inc)
		})
	}
}

func TestEquivalenceFig3TreeBcast(t *testing.T) {
	// No backplane (the paper's clusters have none): distinct branches of
	// the tree are distinct components, the incremental win's source.
	inc, glob := requireEquivalent(t, 16, false, treeBcast(4, 512<<10))
	if glob.ResourceVisits < 2*inc.ResourceVisits {
		t.Errorf("expected >=2x resource-visit savings on the tree broadcast: incremental %d, global %d",
			inc.ResourceVisits, glob.ResourceVisits)
	}
	t.Logf("incremental: %v", inc)
	t.Logf("global:      %v", glob)
}

func TestEquivalenceFig3TreeBcastBackplane(t *testing.T) {
	// With a shared backplane every transfer couples: the incremental mode
	// degenerates to one big component but must still match exactly.
	requireEquivalent(t, 8, true, treeBcast(3, 256<<10))
}

func TestEquivalenceFig5RingPipeline(t *testing.T) {
	inc, glob := requireEquivalent(t, 12, false, ringPipeline(6, 256<<10))
	if glob.ResourceVisits < 2*inc.ResourceVisits {
		t.Errorf("expected >=2x resource-visit savings on the ring: incremental %d, global %d",
			inc.ResourceVisits, glob.ResourceVisits)
	}
}

func TestEquivalenceTable2Churn(t *testing.T) {
	for _, seed := range []int64{1, 42, 20120521} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inc, glob := requireEquivalent(t, 8, false, randomChurn(seed, 240))
			if glob.ResourceVisits < 2*inc.ResourceVisits {
				t.Errorf("expected >=2x resource-visit savings on churn: incremental %d, global %d",
					inc.ResourceVisits, glob.ResourceVisits)
			}
		})
	}
}

// TestShadowCatchesCorruption makes sure the shadow checker is not
// vacuously green: corrupt a live rate behind the allocator's back and the
// next sync must report it.
func TestShadowCatchesCorruption(t *testing.T) {
	eng := des.New()
	net := NewNet(eng)
	caught := 0
	net.enableShadow(func(format string, args ...any) { caught++ })
	r := net.NewResource("wire", 1e9)
	other := net.NewResource("other-wire", 1e9)
	net.Start(1e6, 0, []*Resource{r}, nil)
	eng.After(1e-4, func() {
		r.comp.flows[0].rate *= 2 // simulated missed-dirty bug
		// Trigger the next sync from a disjoint component, so nothing
		// legitimately refills (and thereby repairs) the corrupted one.
		net.Start(1e6, 0, []*Resource{other}, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if caught == 0 {
		t.Fatal("shadow checker missed a corrupted rate")
	}
}
