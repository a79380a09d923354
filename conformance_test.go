// Differential conformance: every collective of every module personality,
// run on a small cluster with real payloads, must deliver byte-identical
// results to the naive sequential references in internal/coll/reference.go.
// The personalities differ in timing, segmentation and topology use —
// never in the bytes they deliver.
package hierknem_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"hierknem"
	"hierknem/internal/buffer"
	"hierknem/internal/clusters"
	"hierknem/internal/coll"
	"hierknem/internal/mpi"
	"hierknem/internal/topology"
)

const (
	confPPN = 4 // ranks per node: leaders and non-leaders on every node
	confNP  = 3 * confPPN
)

// confWorld builds the conformance cluster: 3 Stremi nodes, 4 ranks each,
// so every collective crosses both shared memory and the network.
func confWorld(t *testing.T) *hierknem.World {
	t.Helper()
	spec := hierknem.Stremi(3)
	w, err := hierknem.NewWorldPPN(spec, confPPN)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// confShape is one rank placement the conformance tables run under. The
// first is the base shape and takes every size and root; the others take
// only the sizes around the small-stretch selector (mpi.SmallIntraNode: the
// 4 KB fabric bypass cutoff and the eager threshold) and a non-zero root,
// so each personality's small intra-node form and its general form are both
// checked on contiguous, interleaved and uneven node groups.
type confShape struct {
	name  string // subtest suffix; empty for the base shape
	world func(t *testing.T) *hierknem.World
}

var confShapes = []confShape{
	{"", confWorld},
	{"bynode", func(t *testing.T) *hierknem.World {
		t.Helper()
		w, err := hierknem.NewWorld(hierknem.Stremi(3), "bynode", confNP)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}},
	// 5, 4 and 3 ranks on the three nodes, with the eager threshold lowered
	// to 2 KB so the selector's eager conjunct decides below its cutoff one.
	{"ragged", func(t *testing.T) *hierknem.World {
		t.Helper()
		spec := hierknem.Stremi(3)
		spec.EagerThreshold = 2048
		m, err := topology.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		var coreOf []int
		for node, ranks := range []int{5, 4, 3} {
			for i := 0; i < ranks; i++ {
				coreOf = append(coreOf, node*spec.CoresPerNode()+i)
			}
		}
		w, err := mpi.NewWorld(m, topology.Custom("ragged", coreOf), clusters.Config(&spec))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}},
}

// confEdges are the byte sizes on both sides of the two selector bounds.
var confEdges = []int{2047, 2048, 4095, 4096}

// confGrid calls fn for every (shape, size, root) cell: the base shape gets
// the base and edge sizes under every root, the other shapes the edge sizes
// under the last (non-zero) root. fn appends suffix to its subtest name.
func confGrid(base, edges, roots []int, fn func(sh confShape, suffix string, size, root int)) {
	all := append([]int(nil), base...)
	for _, e := range edges {
		if !slices.Contains(base, e) {
			all = append(all, e)
		}
	}
	for i, sh := range confShapes {
		sizes, rs, suffix := all, roots, ""
		if i > 0 {
			sizes, rs, suffix = edges, roots[len(roots)-1:], "/"+sh.name
		}
		for _, size := range sizes {
			for _, root := range rs {
				fn(sh, suffix, size, root)
			}
		}
	}
}

// confModules is the Ethernet lineup plus MVAPICH2, which only the
// InfiniBand lineup carries: every personality runs on the one cluster.
func confModules() []hierknem.Module {
	spec := hierknem.Stremi(3)
	return append(hierknem.Lineup(&spec), hierknem.MVAPICH2())
}

// confPattern is deterministic per-rank payload; distinct from any module's
// internal scratch contents.
func confPattern(rank, n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte((rank*151 + i*11 + 5) % 249)
	}
	return d
}

// confInts is the integer payload for reductions: Int64 with OpSum/OpMax is
// associative and commutative, so the reference's fold order is canonical
// (float64 sums would differ across reduction trees).
func confInts(rank, elems int) []int64 {
	v := make([]int64, elems)
	for i := range v {
		v[i] = int64(rank*1_000_003 + i*7 - 500)
	}
	return v
}

func TestConformanceBcast(t *testing.T) {
	for _, mod := range confModules() {
		mod := mod
		// Base sizes: eager and rendezvous.
		confGrid([]int{2000, 96 << 10}, confEdges, []int{0, confNP - 1}, func(sh confShape, suffix string, size, root int) {
			t.Run(fmt.Sprintf("%s/%dB/root%d%s", mod.Name(), size, root, suffix), func(t *testing.T) {
				inputs := make([][]byte, confNP)
				for r := range inputs {
					inputs[r] = confPattern(r, size)
				}
				want := coll.RefBcast(inputs, root)
				w := sh.world(t)
				var bad []int
				err := w.Run(func(p *mpi.Proc) {
					c := w.WorldComm()
					me := c.Rank(p)
					var buf *buffer.Buffer
					if me == root {
						buf = buffer.NewReal(append([]byte(nil), inputs[root]...))
					} else {
						buf = buffer.NewReal(make([]byte, size))
					}
					mod.Bcast(p, c, buf, root)
					if !bytes.Equal(buf.Data(), want[me]) {
						bad = append(bad, me)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(bad) != 0 {
					t.Fatalf("ranks %v diverge from the sequential reference", bad)
				}
			})
		})
	}
}

// confReduceEdges are confEdges in Int64 elements: 2040/2048 and 4088/4096
// bytes.
var confReduceEdges = []int{255, 256, 511, 512}

// confReducePipelined is one element past Stremi's 64 KB Reduce segment:
// the smallest HierKNEM Reduce that takes the double-leader pipeline, its
// second segment a single element.
const confReducePipelined = 64<<10/8 + 1

func TestConformanceReduce(t *testing.T) {
	for _, mod := range confModules() {
		for _, op := range []buffer.Op{buffer.OpSum, buffer.OpMax} {
			mod, op := mod, op
			confGrid([]int{256, 8192, confReducePipelined}, confReduceEdges, []int{0, confNP / 2}, func(sh confShape, suffix string, elems, root int) {
				t.Run(fmt.Sprintf("%s/%v/%delems/root%d%s", mod.Name(), op, elems, root, suffix), func(t *testing.T) {
					args := hierknem.ReduceArgs{Op: op, Dtype: buffer.Int64}
					inputs := make([][]byte, confNP)
					for r := range inputs {
						inputs[r] = append([]byte(nil), buffer.Int64s(confInts(r, elems)).Data()...)
					}
					want := coll.RefReduce(args, inputs)
					w := sh.world(t)
					var got []byte
					err := w.Run(func(p *mpi.Proc) {
						c := w.WorldComm()
						me := c.Rank(p)
						sbuf := buffer.NewReal(append([]byte(nil), inputs[me]...))
						var rbuf *buffer.Buffer
						if me == root {
							rbuf = buffer.NewReal(make([]byte, len(inputs[me])))
						}
						mod.Reduce(p, c, args, sbuf, rbuf, root)
						if me == root {
							got = append([]byte(nil), rbuf.Data()...)
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatal("root's reduction diverges from the sequential reference")
					}
				})
			})
		}
	}
}

// TestConformanceAllreduce covers the third collective whose intra-node
// phases have a small form (core/extended.go); every rank must hold the
// sequential reduction.
func TestConformanceAllreduce(t *testing.T) {
	args := hierknem.ReduceArgs{Op: buffer.OpSum, Dtype: buffer.Int64}
	for _, mod := range confModules() {
		mod := mod
		confGrid([]int{8192}, confReduceEdges, []int{0}, func(sh confShape, suffix string, elems, _ int) {
			t.Run(fmt.Sprintf("%s/%delems%s", mod.Name(), elems, suffix), func(t *testing.T) {
				inputs := make([][]byte, confNP)
				for r := range inputs {
					inputs[r] = append([]byte(nil), buffer.Int64s(confInts(r, elems)).Data()...)
				}
				want := coll.RefReduce(args, inputs)
				w := sh.world(t)
				var bad []int
				err := w.Run(func(p *mpi.Proc) {
					c := w.WorldComm()
					me := c.Rank(p)
					sbuf := buffer.NewReal(append([]byte(nil), inputs[me]...))
					rbuf := buffer.NewReal(make([]byte, len(inputs[me])))
					mod.Allreduce(p, c, args, sbuf, rbuf)
					if !bytes.Equal(rbuf.Data(), want) {
						bad = append(bad, me)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(bad) != 0 {
					t.Fatalf("ranks %v diverge from the sequential reference", bad)
				}
			})
		})
	}
}

func TestConformanceAllgather(t *testing.T) {
	for _, mod := range confModules() {
		mod := mod
		confGrid([]int{1500, 48 << 10}, confEdges, []int{0}, func(sh confShape, suffix string, block, _ int) {
			t.Run(fmt.Sprintf("%s/%dB%s", mod.Name(), block, suffix), func(t *testing.T) {
				inputs := make([][]byte, confNP)
				for r := range inputs {
					inputs[r] = confPattern(r, block)
				}
				want := coll.RefAllgather(inputs)
				w := sh.world(t)
				var bad []int
				err := w.Run(func(p *mpi.Proc) {
					c := w.WorldComm()
					me := c.Rank(p)
					sbuf := buffer.NewReal(append([]byte(nil), inputs[me]...))
					rbuf := buffer.NewReal(make([]byte, block*confNP))
					mod.Allgather(p, c, sbuf, rbuf)
					if !bytes.Equal(rbuf.Data(), want) {
						bad = append(bad, me)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(bad) != 0 {
					t.Fatalf("ranks %v diverge from the sequential reference", bad)
				}
			})
		})
	}
}

func TestConformanceScatter(t *testing.T) {
	for _, mod := range confModules() {
		mod := mod
		confGrid([]int{900, 24 << 10}, confEdges, []int{0, 3}, func(sh confShape, suffix string, block, root int) {
			t.Run(fmt.Sprintf("%s/%dB/root%d%s", mod.Name(), block, root, suffix), func(t *testing.T) {
				rootData := make([]byte, 0, block*confNP)
				for r := 0; r < confNP; r++ {
					rootData = append(rootData, confPattern(r, block)...)
				}
				want := coll.RefScatter(rootData, confNP)
				w := sh.world(t)
				var bad []int
				err := w.Run(func(p *mpi.Proc) {
					c := w.WorldComm()
					me := c.Rank(p)
					var sbuf *buffer.Buffer
					if me == root {
						sbuf = buffer.NewReal(append([]byte(nil), rootData...))
					}
					rbuf := buffer.NewReal(make([]byte, block))
					mod.Scatter(p, c, sbuf, rbuf, root)
					if !bytes.Equal(rbuf.Data(), want[me]) {
						bad = append(bad, me)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(bad) != 0 {
					t.Fatalf("ranks %v diverge from the sequential reference", bad)
				}
			})
		})
	}
}

func TestConformanceGather(t *testing.T) {
	for _, mod := range confModules() {
		mod := mod
		confGrid([]int{900, 24 << 10}, confEdges, []int{0, confNP - 1}, func(sh confShape, suffix string, block, root int) {
			t.Run(fmt.Sprintf("%s/%dB/root%d%s", mod.Name(), block, root, suffix), func(t *testing.T) {
				inputs := make([][]byte, confNP)
				for r := range inputs {
					inputs[r] = confPattern(r, block)
				}
				want := coll.RefGather(inputs)
				w := sh.world(t)
				var got []byte
				err := w.Run(func(p *mpi.Proc) {
					c := w.WorldComm()
					me := c.Rank(p)
					sbuf := buffer.NewReal(append([]byte(nil), inputs[me]...))
					var rbuf *buffer.Buffer
					if me == root {
						rbuf = buffer.NewReal(make([]byte, block*confNP))
					}
					mod.Gather(p, c, sbuf, rbuf, root)
					if me == root {
						got = append([]byte(nil), rbuf.Data()...)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("root's gather diverges from the sequential reference")
				}
			})
		})
	}
}
