package coll

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"hierknem/internal/buffer"
	"hierknem/internal/mpi"
	"hierknem/internal/topology"
)

func testWorld(t *testing.T, nodes, coresPerNode, np int) *mpi.World {
	t.Helper()
	m, err := topology.Build(topology.Spec{
		Name:              "colltest",
		Nodes:             nodes,
		SocketsPerNode:    1,
		CoresPerSocket:    coresPerNode,
		MemBandwidth:      10e9,
		CoreCopyBandwidth: 3e9,
		L3Bandwidth:       6e9,
		L3Size:            12 << 20,
		ShmLatency:        1e-6,
		NetBandwidth:      1e9,
		NetLatency:        10e-6,
		NetFullDuplex:     true,
		EagerThreshold:    4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := topology.ByCore(m, np)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(m, b, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// pattern fills deterministic per-rank test data.
func pattern(rank int, n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte((rank*131 + i*7 + 3) % 251)
	}
	return d
}

type bcastAlg struct {
	name string
	run  func(p *mpi.Proc, c *mpi.Comm, buf *buffer.Buffer, root int)
}

func bcastAlgs() []bcastAlg {
	return []bcastAlg{
		{"binomial", func(p *mpi.Proc, c *mpi.Comm, b *buffer.Buffer, root int) { BcastBinomial(p, c, b, root) }},
		{"chain", func(p *mpi.Proc, c *mpi.Comm, b *buffer.Buffer, root int) { BcastChain(p, c, b, root, 1000) }},
		{"chain-whole", func(p *mpi.Proc, c *mpi.Comm, b *buffer.Buffer, root int) { BcastChain(p, c, b, root, 0) }},
		{"bintree", func(p *mpi.Proc, c *mpi.Comm, b *buffer.Buffer, root int) { BcastBinaryTree(p, c, b, root, 1000) }},
		{"scatter-allgather", func(p *mpi.Proc, c *mpi.Comm, b *buffer.Buffer, root int) { BcastScatterAllgather(p, c, b, root) }},
	}
}

func TestBcastAlgorithmsDeliverEverywhere(t *testing.T) {
	for _, alg := range bcastAlgs() {
		for _, np := range []int{2, 3, 5, 8, 13} {
			for _, root := range []int{0, 1, np - 1} {
				name := fmt.Sprintf("%s/np%d/root%d", alg.name, np, root)
				t.Run(name, func(t *testing.T) {
					w := testWorld(t, 2, (np+1)/2, np)
					want := pattern(root, 10000)
					bad := 0
					err := w.Run(func(p *mpi.Proc) {
						c := w.WorldComm()
						var buf *buffer.Buffer
						if c.Rank(p) == root {
							buf = buffer.NewReal(append([]byte(nil), want...))
						} else {
							buf = buffer.NewReal(make([]byte, len(want)))
						}
						alg.run(p, c, buf, root)
						if !bytes.Equal(buf.Data(), want) {
							bad++
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					if bad != 0 {
						t.Fatalf("%d ranks got wrong data", bad)
					}
				})
			}
		}
	}
}

func TestBcastSingleRankNoop(t *testing.T) {
	for _, alg := range bcastAlgs() {
		w := testWorld(t, 1, 1, 1)
		err := w.Run(func(p *mpi.Proc) {
			buf := buffer.NewReal(pattern(0, 64))
			alg.run(p, w.WorldComm(), buf, 0)
		})
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
	}
}

type reduceAlg struct {
	name string
	run  func(p *mpi.Proc, c *mpi.Comm, a ReduceArgs, sbuf, rbuf *buffer.Buffer, root int)
}

func reduceAlgs() []reduceAlg {
	return []reduceAlg{
		{"binomial", func(p *mpi.Proc, c *mpi.Comm, a ReduceArgs, s, r *buffer.Buffer, root int) {
			ReduceBinomial(p, c, a, s, r, root, 0)
		}},
		{"chain", func(p *mpi.Proc, c *mpi.Comm, a ReduceArgs, s, r *buffer.Buffer, root int) {
			ReduceChain(p, c, a, s, r, root, 800, 0)
		}},
		{"rabenseifner", func(p *mpi.Proc, c *mpi.Comm, a ReduceArgs, s, r *buffer.Buffer, root int) {
			ReduceRabenseifner(p, c, a, s, r, root)
		}},
	}
}

func TestReduceAlgorithmsComputeSum(t *testing.T) {
	const elems = 500
	for _, alg := range reduceAlgs() {
		for _, np := range []int{2, 3, 4, 8, 9} {
			for _, root := range []int{0, np / 2} {
				name := fmt.Sprintf("%s/np%d/root%d", alg.name, np, root)
				t.Run(name, func(t *testing.T) {
					w := testWorld(t, 2, (np+1)/2, np)
					want := make([]int64, elems)
					for r := 0; r < np; r++ {
						for i := range want {
							want[i] += int64(r*1000 + i)
						}
					}
					var got []int64
					err := w.Run(func(p *mpi.Proc) {
						c := w.WorldComm()
						me := c.Rank(p)
						vals := make([]int64, elems)
						for i := range vals {
							vals[i] = int64(me*1000 + i)
						}
						sbuf := buffer.Int64s(vals)
						var rbuf *buffer.Buffer
						if me == root {
							rbuf = buffer.Int64s(make([]int64, elems))
						}
						alg.run(p, c, ReduceArgs{Op: buffer.OpSum, Dtype: buffer.Int64}, sbuf, rbuf, root)
						if me == root {
							got = buffer.AsInt64s(rbuf)
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("elem %d = %d, want %d", i, got[i], want[i])
						}
					}
				})
			}
		}
	}
}

func TestReduceMaxOp(t *testing.T) {
	w := testWorld(t, 2, 2, 4)
	var got []int64
	err := w.Run(func(p *mpi.Proc) {
		c := w.WorldComm()
		me := c.Rank(p)
		sbuf := buffer.Int64s([]int64{int64(me), int64(10 - me)})
		var rbuf *buffer.Buffer
		if me == 0 {
			rbuf = buffer.Int64s(make([]int64, 2))
		}
		ReduceBinomial(p, c, ReduceArgs{Op: buffer.OpMax, Dtype: buffer.Int64}, sbuf, rbuf, 0, 0)
		if me == 0 {
			got = buffer.AsInt64s(rbuf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 10 {
		t.Fatalf("max = %v, want [3 10]", got)
	}
}

func TestAllgatherVariantsDeliverAllBlocks(t *testing.T) {
	const block = 600
	variants := []struct {
		name string
		run  func(p *mpi.Proc, c *mpi.Comm, s, r *buffer.Buffer)
	}{
		{"ring", func(p *mpi.Proc, c *mpi.Comm, s, r *buffer.Buffer) {
			AllgatherRing(p, c, s, r, nil, true)
		}},
		{"ring-serialized", func(p *mpi.Proc, c *mpi.Comm, s, r *buffer.Buffer) {
			AllgatherRing(p, c, s, r, nil, false)
		}},
		{"recursive-doubling", func(p *mpi.Proc, c *mpi.Comm, s, r *buffer.Buffer) {
			AllgatherRecursiveDoubling(p, c, s, r)
		}},
	}
	for _, v := range variants {
		for _, np := range []int{2, 4, 5, 8} {
			t.Run(fmt.Sprintf("%s/np%d", v.name, np), func(t *testing.T) {
				w := testWorld(t, 2, (np+1)/2, np)
				bad := 0
				err := w.Run(func(p *mpi.Proc) {
					c := w.WorldComm()
					me := c.Rank(p)
					sbuf := buffer.NewReal(pattern(me, block))
					rbuf := buffer.NewReal(make([]byte, block*np))
					v.run(p, c, sbuf, rbuf)
					for r := 0; r < np; r++ {
						if !bytes.Equal(rbuf.Data()[r*block:(r+1)*block], pattern(r, block)) {
							bad++
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if bad != 0 {
					t.Fatalf("%d blocks wrong", bad)
				}
			})
		}
	}
}

// Regression: the serialized-progress ring with rendezvous-size blocks and
// cross-node neighbors must not deadlock (a literal send-then-recv ordering
// would: every rank blocks in a rendezvous send).
func TestAllgatherRingSerializedRendezvousNoDeadlock(t *testing.T) {
	const block = 8192 // >= eager threshold: rendezvous path
	np := 8
	w := testWorld(t, 4, 2, np) // 2 ranks per node: cross-node ring edges
	bad := 0
	err := w.Run(func(p *mpi.Proc) {
		c := w.WorldComm()
		me := c.Rank(p)
		sbuf := buffer.NewReal(pattern(me, block))
		rbuf := buffer.NewReal(make([]byte, block*np))
		AllgatherRing(p, c, sbuf, rbuf, nil, false)
		for r := 0; r < np; r++ {
			if !bytes.Equal(rbuf.Data()[r*block:(r+1)*block], pattern(r, block)) {
				bad++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%d blocks wrong", bad)
	}
}

// The serialized personality must actually cost more than the full-duplex
// ring when edges cross nodes.
func TestAllgatherRingSerializedPenalty(t *testing.T) {
	run := func(duplex bool) float64 {
		w := testWorld(t, 4, 2, 8)
		err := w.Run(func(p *mpi.Proc) {
			c := w.WorldComm()
			sbuf := buffer.NewPhantom(64 << 10)
			rbuf := buffer.NewPhantom(64 << 10 * 8)
			AllgatherRing(p, c, sbuf, rbuf, nil, duplex)
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Now()
	}
	if ser, dup := run(false), run(true); ser <= dup {
		t.Fatalf("serialized ring (%g) should be slower than duplex (%g)", ser, dup)
	}
}

func TestAllgatherRingCustomOrder(t *testing.T) {
	const block = 512
	np := 6
	w := testWorld(t, 2, 3, np)
	order := []int{0, 2, 4, 1, 3, 5} // arbitrary permutation
	bad := 0
	err := w.Run(func(p *mpi.Proc) {
		c := w.WorldComm()
		me := c.Rank(p)
		sbuf := buffer.NewReal(pattern(me, block))
		rbuf := buffer.NewReal(make([]byte, block*np))
		AllgatherRing(p, c, sbuf, rbuf, order, true)
		for r := 0; r < np; r++ {
			if !bytes.Equal(rbuf.Data()[r*block:(r+1)*block], pattern(r, block)) {
				bad++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%d blocks wrong with custom ring order", bad)
	}
	// Every rank was handed the same slice (as with Comm.PhysicalOrder's
	// memoised result): the ring must only read it.
	if want := []int{0, 2, 4, 1, 3, 5}; !slices.Equal(order, want) {
		t.Fatalf("AllgatherRing modified the shared order slice: %v, want %v", order, want)
	}
}

func TestGatherLinear(t *testing.T) {
	const block = 64
	np := 5
	w := testWorld(t, 1, 5, np)
	var got []byte
	err := w.Run(func(p *mpi.Proc) {
		c := w.WorldComm()
		me := c.Rank(p)
		sbuf := buffer.NewReal(pattern(me, block))
		var rbuf *buffer.Buffer
		if me == 2 {
			rbuf = buffer.NewReal(make([]byte, block*np))
		}
		GatherLinear(p, c, sbuf, rbuf, 2)
		if me == 2 {
			got = append([]byte(nil), rbuf.Data()...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < np; r++ {
		if !bytes.Equal(got[r*block:(r+1)*block], pattern(r, block)) {
			t.Fatalf("block %d wrong", r)
		}
	}
}

// Chain should beat binomial for large pipelined messages on a chain of
// uniform links (steady-state bandwidth argument from the paper's related
// work), while binomial wins for small messages (latency argument).
func TestChainVsBinomialCrossover(t *testing.T) {
	run := func(alg bcastAlg, bytesN int64) float64 {
		w := testWorld(t, 8, 1, 8)
		start := w.Now()
		err := w.Run(func(p *mpi.Proc) {
			buf := buffer.NewPhantom(bytesN)
			alg.run(p, w.WorldComm(), buf, 0)
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Now() - start
	}
	chain := bcastAlg{"chain", func(p *mpi.Proc, c *mpi.Comm, b *buffer.Buffer, root int) {
		BcastChain(p, c, b, root, 64<<10)
	}}
	algs := bcastAlgs()
	binomial := algs[slices.IndexFunc(algs, func(a bcastAlg) bool { return a.name == "binomial" })]

	bigChain := run(chain, 8<<20)
	bigBinom := run(binomial, 8<<20)
	if bigChain >= bigBinom {
		t.Fatalf("8MB: chain %.6gs not faster than binomial %.6gs", bigChain, bigBinom)
	}
	smallChain := run(chain, 256)
	smallBinom := run(binomial, 256)
	if smallBinom >= smallChain {
		t.Fatalf("256B: binomial %.6gs not faster than chain %.6gs", smallBinom, smallChain)
	}
}

// Property: broadcast delivers arbitrary payloads for arbitrary (np, root)
// with the binomial algorithm.
func TestQuickBinomialBcast(t *testing.T) {
	f := func(data []byte, np8, root8 uint8) bool {
		if len(data) == 0 {
			data = []byte{1}
		}
		np := int(np8)%9 + 2
		root := int(root8) % np
		w := testWorld(t, 2, (np+1)/2, np)
		ok := true
		err := w.Run(func(p *mpi.Proc) {
			c := w.WorldComm()
			var buf *buffer.Buffer
			if c.Rank(p) == root {
				buf = buffer.NewReal(append([]byte(nil), data...))
			} else {
				buf = buffer.NewReal(make([]byte, len(data)))
			}
			BcastBinomial(p, c, buf, root)
			if !bytes.Equal(buf.Data(), data) {
				ok = false
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: ring allgather with a random ring order still delivers every
// block to every rank.
func TestQuickRingOrderInvariance(t *testing.T) {
	f := func(perm []uint8, np8 uint8) bool {
		np := int(np8)%7 + 2
		order := make([]int, np)
		for i := range order {
			order[i] = i
		}
		// Fisher-Yates driven by the fuzz input.
		for i := np - 1; i > 0 && len(perm) > 0; i-- {
			j := int(perm[i%len(perm)]) % (i + 1)
			order[i], order[j] = order[j], order[i]
		}
		const block = 40
		w := testWorld(t, 2, (np+1)/2, np)
		ok := true
		err := w.Run(func(p *mpi.Proc) {
			c := w.WorldComm()
			me := c.Rank(p)
			sbuf := buffer.NewReal(pattern(me, block))
			rbuf := buffer.NewReal(make([]byte, block*np))
			AllgatherRing(p, c, sbuf, rbuf, order, true)
			for r := 0; r < np; r++ {
				if !bytes.Equal(rbuf.Data()[r*block:(r+1)*block], pattern(r, block)) {
					ok = false
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLikeMatchesRealness(t *testing.T) {
	if Like(buffer.NewReal([]byte{1}), 5).Phantom() {
		t.Fatal("Like(real) returned phantom")
	}
	if !Like(buffer.NewPhantom(1), 5).Phantom() {
		t.Fatal("Like(phantom) returned real")
	}
	if !Like(nil, 5).Phantom() {
		t.Fatal("Like(nil) returned real")
	}
}
