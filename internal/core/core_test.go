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

// children lists v's children in the spanning tree.
func children(v, size int, nseg int64) []int {
	_, nch := spanningTree(v, size, nseg)
	sh := shape{role: bcastLeader, v: int32(v), size: int32(size), nseg: int32(nseg)}
	var cs []int
	for j := int32(0); j < int32(nch); j++ {
		cs = append(cs, sh.link(j))
	}
	return cs
}

func TestSpanningTreeShapes(t *testing.T) {
	// Chain regime: deep pipelines.
	for v := 0; v < 8; v++ {
		parent, _ := spanningTree(v, 8, 100)
		children := children(v, 8, 100)
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
				for _, c := range children(v, size, 1) {
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

// TestBcastSegmentedTailDeliversReference: a pipelined Bcast whose last
// segment is one byte, from roots on other nodes than rank 0's, delivers
// the sequential reference's bytes to every rank. Each Run broadcasts
// twice from different roots, so the non-leaders' stepped-wait records are
// reused with a different root node and segment count.
func TestBcastSegmentedTailDeliversReference(t *testing.T) {
	spec := miniCluster(false)
	spec.Nodes = 3
	const ppn, seg = 4, 4 << 10
	mod := New(Options{BcastPipeline: FixedPipeline(seg)})
	// 4 segments take the binomial tree, 9 the chain.
	for _, size := range []int{3*seg + 1, 8*seg + 1} {
		if _, n := mpi.SegmentBounds(int64(size), seg, segCount(int64(size), seg)-1); n != 1 {
			t.Fatalf("%d bytes: last segment of %d bytes, want 1", size, n)
		}
		for _, roots := range [][2]int{{5, 11}, {11, 2}} {
			t.Run(fmt.Sprintf("%dB/roots%d,%d", size, roots[0], roots[1]), func(t *testing.T) {
				w := ppnWorld(t, spec, ppn)
				np := w.Size()
				var want [2][][]byte
				for k, root := range roots {
					inputs := make([][]byte, np)
					for r := range inputs {
						inputs[r] = make([]byte, size)
						for i := range inputs[r] {
							inputs[r][i] = byte(r*31 + i*7 + k)
						}
					}
					want[k] = coll.RefBcast(inputs, root)
				}
				var bad []string
				err := w.Run(func(p *mpi.Proc) {
					c := w.WorldComm()
					me := c.Rank(p)
					for k, root := range roots {
						buf := buffer.NewReal(make([]byte, size))
						if me == root {
							copy(buf.Data(), want[k][root])
						}
						mod.Bcast(p, c, buf, root)
						if !bytes.Equal(buf.Data(), want[k][me]) {
							bad = append(bad, fmt.Sprintf("rank %d (root %d)", me, root))
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(bad) > 0 {
					t.Fatalf("%v diverge from the sequential reference", bad)
				}
			})
		}
	}
}

// TestReduceSegmentedTailDeliversReference: pipelined Reduces from roots on
// other nodes than rank 0's deliver the sequential reference's sums at the
// root. The last segment is one 8-byte element, under the eager cutoff, so
// the non-leaders' final sends are eager and charge their sender a copy-in.
// Each Run reduces twice, 9 segments (the inter-node chain) then 4 (the
// binomial tree) from different roots, so the non-leaders' stepped-wait
// records are reused with another segment count. At ppn 2 new_comm is the
// 2nd leader alone; at ppn 3 it has one non-leader, the chain's far end,
// which only sends; at ppn 5 three.
func TestReduceSegmentedTailDeliversReference(t *testing.T) {
	spec := miniCluster(false)
	spec.Nodes = 3
	const seg = 4 << 10
	sum := coll.ReduceArgs{Op: buffer.OpSum, Dtype: buffer.Int64}
	mod := New(Options{ReducePipeline: FixedPipeline(seg)})
	sizes := [2]int{8*seg + 8, 3*seg + 8}
	for k, size := range sizes {
		nseg := segCount(int64(size), seg)
		if _, n := mpi.SegmentBounds(int64(size), seg, nseg-1); n != 8 || n >= spec.EagerThreshold {
			t.Fatalf("%d bytes: last segment of %d bytes, want 8, under the eager threshold", size, n)
		}
		if chain := nseg >= chainMinSegs; chain != (k == 0) {
			t.Fatalf("%d bytes: %d segments, chain %v", size, nseg, chain)
		}
	}
	for _, ppn := range []int{2, 3, 5} {
		for _, roots := range [][2]int{{ppn + 1, 2 * ppn}, {2*ppn + 1, ppn}} {
			t.Run(fmt.Sprintf("ppn%d/roots%d,%d", ppn, roots[0], roots[1]), func(t *testing.T) {
				w := ppnWorld(t, spec, ppn)
				np := w.Size()
				var inputs [2][][]byte
				var want [2][]byte
				for k, size := range sizes {
					inputs[k] = make([][]byte, np)
					for r := range inputs[k] {
						v := make([]int64, size/8)
						for i := range v {
							v[i] = int64(r*1009 + i*7 + k)
						}
						inputs[k][r] = buffer.Int64s(v).Data()
					}
					want[k] = coll.RefReduce(sum, inputs[k])
				}
				var bad []string
				err := w.Run(func(p *mpi.Proc) {
					c := w.WorldComm()
					me := c.Rank(p)
					for k, root := range roots {
						sbuf := buffer.NewReal(append([]byte(nil), inputs[k][me]...))
						rbuf := buffer.NewReal(make([]byte, sizes[k]))
						mod.Reduce(p, c, sum, sbuf, rbuf, root)
						if me == root && !bytes.Equal(rbuf.Data(), want[k]) {
							bad = append(bad, fmt.Sprintf("root %d (%d bytes)", root, sizes[k]))
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(bad) > 0 {
					t.Fatalf("%v diverge from the sequential reference", bad)
				}
			})
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
