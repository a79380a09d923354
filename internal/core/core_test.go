package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hierknem/internal/buffer"
	"hierknem/internal/coll"
	"hierknem/internal/imb"
	"hierknem/internal/modules"
	"hierknem/internal/mpi"
	"hierknem/internal/topology"
)

// miniCluster is a scaled-down Parapluie: 8 nodes x 2 sockets x 6 cores.
func miniCluster(ib bool) topology.Spec {
	s := topology.Spec{
		Name: "mini", Nodes: 8, SocketsPerNode: 2, CoresPerSocket: 6,
		MemBandwidth: 10e9, CoreCopyBandwidth: 3e9, L3Bandwidth: 6e9,
		L3TotalBandwidth: 30e9, L3Size: 12 << 20, ShmLatency: 1e-6,
		NetBandwidth: 1.9e9, NetLatency: 5e-6, NetFullDuplex: true,
		EagerThreshold: 4096,
	}
	if !ib {
		s.NetBandwidth = 125e6
		s.NetLatency = 50e-6
	}
	return s
}

func newWorld(t testing.TB, spec topology.Spec, binding string, np int) *mpi.World {
	t.Helper()
	m, err := topology.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	var b *topology.Binding
	if binding == "bynode" {
		b, err = topology.ByNode(m, np)
	} else {
		b, err = topology.ByCore(m, np)
	}
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(m, b, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// ppnWorld builds a world with exactly ppn ranks on each of the spec's nodes.
func ppnWorld(t testing.TB, spec topology.Spec, ppn int) *mpi.World {
	t.Helper()
	m, err := topology.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := topology.ByCorePPN(m, ppn*spec.Nodes, ppn)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(m, b, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSpanningTreeShapes(t *testing.T) {
	// Chain regime: deep pipelines.
	for v := 0; v < 8; v++ {
		parent, children := spanningTree(v, 8, 100)
		if v > 0 && parent != v-1 {
			t.Fatalf("chain parent(%d) = %d", v, parent)
		}
		if v < 7 && (len(children) != 1 || children[0] != v+1) {
			t.Fatalf("chain children(%d) = %v", v, children)
		}
		if v == 7 && len(children) != 0 {
			t.Fatalf("chain leaf has children %v", children)
		}
	}
	// Binomial regime: shallow pipelines. Verify it is a valid tree that
	// reaches everyone: simulate propagation rounds.
	for _, size := range []int{2, 3, 5, 8, 13, 32} {
		reached := map[int]bool{0: true}
		// children relationships
		for v := 0; v < size; v++ {
			parent, _ := spanningTree(v, size, 1)
			if v == 0 {
				continue
			}
			if parent < 0 || parent >= size || parent == v {
				t.Fatalf("size %d: bad parent(%d) = %d", size, v, parent)
			}
		}
		// walk from root
		frontier := []int{0}
		for len(frontier) > 0 {
			var next []int
			for _, v := range frontier {
				_, children := spanningTree(v, size, 1)
				for _, c := range children {
					if reached[c] {
						t.Fatalf("size %d: %d reached twice", size, c)
					}
					reached[c] = true
					next = append(next, c)
				}
			}
			frontier = next
		}
		if len(reached) != size {
			t.Fatalf("size %d: binomial tree reaches %d ranks", size, len(reached))
		}
	}
}

func TestPipelineTables(t *testing.T) {
	ib := PipelineIB()
	if ib.Bcast(1<<20) != 64<<10 || ib.Reduce(32<<20) != 64<<10 {
		t.Fatal("IB pipeline table wrong")
	}
	eth := PipelineEthernet()
	if eth.Bcast(256<<10) != 16<<10 {
		t.Fatalf("eth bcast small = %d", eth.Bcast(256<<10))
	}
	if eth.Bcast(1<<20) != 32<<10 {
		t.Fatalf("eth bcast large = %d", eth.Bcast(1<<20))
	}
	if eth.Reduce(1<<20) != 64<<10 || eth.Reduce(32<<20) != 1<<20 {
		t.Fatal("eth reduce table wrong")
	}
	if FixedPipeline(1234)(99) != 1234 {
		t.Fatal("FixedPipeline ignores its argument")
	}
}

func TestAllgatherSelection(t *testing.T) {
	// 2 ppn -> leader-based; 12 ppn -> ring. Verified via ForceAllgather
	// equivalence of virtual times.
	spec := miniCluster(true)
	run := func(force AllgatherAlg, ppn int) float64 {
		w := ppnWorld(t, spec, ppn)
		mod := New(Options{ForceAllgather: force})
		r := imb.Allgather(w, mod, 64<<10, imb.Opts{Iterations: 2, Warmup: 1})
		return r.AvgTime
	}
	// Auto at 2 ppn equals forced leader mode.
	if a, l := run(AllgatherAuto, 2), run(AllgatherLeader, 2); a != l {
		t.Fatalf("auto(2ppn)=%g != leader=%g", a, l)
	}
	// Auto at 12 ppn equals forced ring mode.
	if a, r := run(AllgatherAuto, 12), run(AllgatherRing, 12); a != r {
		t.Fatalf("auto(12ppn)=%g != ring=%g", a, r)
	}
	// An override outside the set panics with its value instead of falling
	// through to one of the algorithms.
	func() {
		defer func() {
			if r := recover(); !strings.Contains(fmt.Sprint(r), "AllgatherAlg(7)") {
				t.Fatalf("AllgatherAlg(7) recovered %v, want a panic naming the value", r)
			}
		}()
		run(AllgatherAlg(7), 2)
	}()
}

// Figure 2's mechanism at mini scale: leader-based wins at 2 ppn, the ring
// wins at full nodes.
func TestAllgatherCrossover(t *testing.T) {
	spec := miniCluster(true)
	run := func(force AllgatherAlg, ppn int) float64 {
		w := ppnWorld(t, spec, ppn)
		mod := New(Options{ForceAllgather: force})
		return imb.Allgather(w, mod, 512<<10, imb.Opts{Iterations: 2, Warmup: 1}).AvgTime
	}
	// At 2 ppn the paper reports a slight leader-based advantage; in this
	// model the two are within a few percent — assert competitiveness.
	if leader, ring := run(AllgatherLeader, 2), run(AllgatherRing, 2); leader > ring*1.05 {
		t.Fatalf("2 ppn: leader-based (%g) should be within 5%% of ring (%g)", leader, ring)
	}
	// At full nodes the leader's memory bus is the hot spot and the ring
	// must win clearly.
	if leader, ring := run(AllgatherLeader, 12), run(AllgatherRing, 12); ring >= leader*0.95 {
		t.Fatalf("12 ppn: ring (%g) should clearly beat leader-based (%g)", ring, leader)
	}
}

// The headline property (Figure 3): HierKNEM's overlap beats the sequential
// two-level Hierarch, which beats the flat Tuned module, for mid-size
// broadcasts on the Ethernet personality at full node population.
func TestBcastBeatsBaselines(t *testing.T) {
	spec := miniCluster(false)
	np := 96
	size := int64(256 << 10)
	pl := PipelineEthernet()
	time := func(mod modules.Module) float64 {
		w := newWorld(t, spec, "bycore", np)
		return imb.Bcast(w, mod, size, imb.Opts{Iterations: 2, Warmup: 1}).AvgTime
	}
	hk := time(New(Options{BcastPipeline: pl.Bcast, ReducePipeline: pl.Reduce}))
	hier := time(modules.Hierarch(modules.Quirks{}))
	tuned := time(modules.Tuned(modules.Quirks{}))
	if hk >= hier {
		t.Fatalf("hierknem (%g) not faster than hierarch (%g)", hk, hier)
	}
	if hier >= tuned {
		t.Fatalf("hierarch (%g) not faster than tuned (%g)", hier, tuned)
	}
	if tuned/hk < 3 {
		t.Fatalf("hierknem speedup over tuned only %.1fx", tuned/hk)
	}
}

// Figure 6's property: HierKNEM's performance is nearly binding-invariant
// while Tuned's allgather collapses under by-node placement.
func TestBindingInvariance(t *testing.T) {
	spec := miniCluster(true)
	np := 96
	size := int64(128 << 10)
	run := func(mod modules.Module, binding string) float64 {
		w := newWorld(t, spec, binding, np)
		return imb.Allgather(w, mod, size, imb.Opts{Iterations: 2, Warmup: 1}).AvgTime
	}
	hk := New(Options{})
	hkRatio := run(hk, "bynode") / run(hk, "bycore")
	if hkRatio > 1.3 {
		t.Fatalf("hierknem bynode/bycore = %.2f, want <= 1.3", hkRatio)
	}
	tuned := modules.Tuned(modules.Quirks{})
	tunedRatio := run(tuned, "bynode") / run(tuned, "bycore")
	if tunedRatio < 2 {
		t.Fatalf("tuned bynode/bycore = %.2f, want >= 2 (topology-unaware penalty)", tunedRatio)
	}
	if tunedRatio < hkRatio {
		t.Fatal("tuned should be more binding-sensitive than hierknem")
	}
}

// Figure 1's property: the pipeline size has a sweet spot — too small pays
// latency per segment, too large loses pipelining.
func TestPipelineSizeSweetSpot(t *testing.T) {
	spec := miniCluster(true)
	np := 96
	size := int64(4 << 20)
	time := func(seg int64) float64 {
		w := newWorld(t, spec, "bycore", np)
		mod := New(Options{BcastPipeline: FixedPipeline(seg)})
		return imb.Bcast(w, mod, size, imb.Opts{Iterations: 2, Warmup: 1}).AvgTime
	}
	mid := time(64 << 10)
	tiny := time(4 << 10)
	huge := time(4 << 20) // single segment: no pipelining at all
	if mid >= tiny {
		t.Fatalf("64KB pipeline (%g) should beat 4KB (%g)", mid, tiny)
	}
	if mid >= huge {
		t.Fatalf("64KB pipeline (%g) should beat whole-message (%g)", mid, huge)
	}
}

// Special case: all ranks on a single node — the broadcast must degenerate
// to the KNEM linear algorithm (every non-root fetches concurrently) and
// still deliver correct data.
func TestSingleNodeDegeneratesToKnemLinear(t *testing.T) {
	spec := miniCluster(true)
	spec.Nodes = 1
	w := newWorld(t, spec, "bycore", 12)
	mod := New(Options{})
	want := make([]byte, 100000)
	for i := range want {
		want[i] = byte(i * 7)
	}
	bad := 0
	err := w.Run(func(p *mpi.Proc) {
		c := w.WorldComm()
		var buf *buffer.Buffer
		if c.Rank(p) == 0 {
			buf = buffer.NewReal(append([]byte(nil), want...))
		} else {
			buf = buffer.NewReal(make([]byte, len(want)))
		}
		mod.Bcast(p, c, buf, 0)
		if !bytes.Equal(buf.Data(), want) {
			bad++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%d ranks wrong", bad)
	}
}

// Special case: one rank per node — identical virtual time structure to a
// pure inter-node pipeline (lcomm barriers are no-ops).
func TestOneRankPerNodeMorphsToInterTree(t *testing.T) {
	spec := miniCluster(true)
	w := newWorld(t, spec, "bynode", 8)
	mod := New(Options{})
	r := imb.Bcast(w, mod, 1<<20, imb.Opts{Iterations: 2, Warmup: 1})
	// The broadcast must complete and beat a naive linear send of 7 full
	// copies (sanity bound on the degenerate path).
	naive := 7 * float64(1<<20) / spec.NetBandwidth
	if r.AvgTime >= naive {
		t.Fatalf("degenerate bcast %g slower than naive linear %g", r.AvgTime, naive)
	}
}

// Reduce correctness at mini-cluster scale with verification against the
// analytic expectation, exercising the double-leader pipeline.
func TestReducePipelineCorrect(t *testing.T) {
	spec := miniCluster(true)
	const np = 24
	w := newWorld(t, spec, "bycore", np)
	mod := New(Options{ReducePipeline: FixedPipeline(8 << 10)})
	const elems = 20000 // ~160KB: several segments
	var got []int64
	err := w.Run(func(p *mpi.Proc) {
		c := w.WorldComm()
		me := c.Rank(p)
		vals := make([]int64, elems)
		for i := range vals {
			vals[i] = int64(me + i)
		}
		sbuf := buffer.Int64s(vals)
		var rbuf *buffer.Buffer
		if me == 0 {
			rbuf = buffer.Int64s(make([]int64, elems))
		}
		mod.Reduce(p, c, coll.ReduceArgs{Op: buffer.OpSum, Dtype: buffer.Int64}, sbuf, rbuf, 0)
		if me == 0 {
			got = buffer.AsInt64s(rbuf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < elems; i++ {
		want := int64(np*i) + int64(np*(np-1)/2)
		if got[i] != want {
			t.Fatalf("elem %d = %d, want %d", i, got[i], want)
		}
	}
}

// The offload claim: with HierKNEM the leader's broadcast-path time is
// bounded by inter-node forwarding, so adding more local ranks must not
// slow the collective much (the Figure 7(a) mechanism). Compare 2 ppn vs
// 12 ppn at constant node count on the Ethernet personality.
func TestCorePerNodeScalingEthernet(t *testing.T) {
	spec := miniCluster(false)
	size := int64(2 << 20)
	pl := PipelineEthernet()
	time := func(np int) float64 {
		w := newWorld(t, spec, "bycore", np)
		mod := New(Options{BcastPipeline: pl.Bcast})
		return imb.Bcast(w, mod, size, imb.Opts{Iterations: 2, Warmup: 1}).AvgTime
	}
	t2 := time(16)  // 2 ppn
	t12 := time(96) // 12 ppn
	if t12 > t2*1.35 {
		t.Fatalf("2MB bcast slowed from %g to %g with 6x more ranks per node; want near-constant", t2, t12)
	}
}

func TestModuleInterface(t *testing.T) {
	var _ modules.Module = New(Options{})
	if New(Options{}).Name() != "hierknem" {
		t.Fatal("wrong module name")
	}
}

func TestPhysicalOrderGroupsNodes(t *testing.T) {
	spec := miniCluster(true)
	w := newWorld(t, spec, "bynode", 32)
	err := w.Run(func(p *mpi.Proc) {
		c := w.WorldComm()
		if c.Rank(p) != 0 {
			return
		}
		order := c.PhysicalOrder()
		if len(order) != 32 {
			t.Errorf("order length %d", len(order))
		}
		// Node ids must be non-decreasing along the order.
		for i := 1; i < len(order); i++ {
			a := c.Proc(order[i-1]).Core().NodeID
			b := c.Proc(order[i]).Core().NodeID
			if b < a {
				t.Errorf("physical order visits node %d after %d", b, a)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUniformContiguous(t *testing.T) {
	spec := miniCluster(true)
	wByCore := newWorld(t, spec, "bycore", 24)
	err := wByCore.Run(func(p *mpi.Proc) {
		if !wByCore.WorldComm().UniformBlocks() {
			t.Error("bycore full nodes should be uniform-contiguous")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	wByNode := newWorld(t, spec, "bynode", 24)
	err = wByNode.Run(func(p *mpi.Proc) {
		if wByNode.WorldComm().UniformBlocks() {
			t.Error("bynode interleaving should not be uniform-contiguous")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func ExampleModule() {
	spec := topology.Spec{
		Name: "example", Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 4,
		MemBandwidth: 10e9, CoreCopyBandwidth: 3e9, NetBandwidth: 1e9,
		NetLatency: 10e-6, ShmLatency: 1e-6, EagerThreshold: 4096,
	}
	m, _ := topology.Build(spec)
	b, _ := topology.ByCore(m, 8)
	w, _ := mpi.NewWorld(m, b, mpi.Config{})
	mod := New(Options{})
	_ = w.Run(func(p *mpi.Proc) {
		c := w.WorldComm()
		buf := buffer.NewReal([]byte("hierknem!"))
		if c.Rank(p) != 0 {
			buf = buffer.NewReal(make([]byte, 9))
		}
		mod.Bcast(p, c, buf, 0)
		if c.Rank(p) == 7 {
			fmt.Printf("rank 7: %s\n", buf.Data())
		}
	})
	// Output: rank 7: hierknem!
}
