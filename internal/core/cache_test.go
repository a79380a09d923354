package core

import (
	"bytes"
	"runtime"
	"testing"

	"hierknem/internal/buffer"
	"hierknem/internal/coll"
	"hierknem/internal/imb"
	"hierknem/internal/mpi"
)

// CacheTopology is the paper's stated future work: build the topology map
// once per communicator. It must not change results, and must remove the
// per-call detection cost.

func TestCacheTopologyCorrectAcrossOps(t *testing.T) {
	spec := miniCluster(true)
	w := newWorld(t, spec, "bycore", 24)
	mod := New(Options{CacheTopology: true})
	const size = 40000
	for iter := 0; iter < 3; iter++ {
		want := make([]byte, size)
		for i := range want {
			want[i] = byte(i * (iter + 3))
		}
		bad := 0
		err := w.Run(func(p *mpi.Proc) {
			c := w.WorldComm()
			var buf *buffer.Buffer
			if c.Rank(p) == 0 {
				buf = buffer.NewReal(append([]byte(nil), want...))
			} else {
				buf = buffer.NewReal(make([]byte, size))
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
			t.Fatalf("iter %d: %d ranks wrong", iter, bad)
		}
	}
}

func TestCacheTopologyMixedCollectives(t *testing.T) {
	spec := miniCluster(true)
	w := newWorld(t, spec, "bycore", 24)
	mod := New(Options{CacheTopology: true})
	const elems = 4000
	var got []int64
	err := w.Run(func(p *mpi.Proc) {
		c := w.WorldComm()
		me := c.Rank(p)
		// Bcast then Reduce on the same comm/root: the cached hierarchy
		// is shared; NewComm splits exactly once.
		b := buffer.NewPhantom(32 << 10)
		mod.Bcast(p, c, b, 0)

		vals := make([]int64, elems)
		for i := range vals {
			vals[i] = int64(me)
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

		// And a second reduce, exercising the cached NewComm path.
		if me == 0 {
			rbuf = buffer.Int64s(make([]int64, elems))
		}
		mod.Reduce(p, c, coll.ReduceArgs{Op: buffer.OpSum, Dtype: buffer.Int64}, sbuf, rbuf, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(24 * 23 / 2)
	for i := range got {
		if got[i] != want {
			t.Fatalf("elem %d = %d, want %d", i, got[i], want)
		}
	}
}

func TestCacheTopologyRemovesDetectionCost(t *testing.T) {
	spec := miniCluster(true)
	const detect = 500e-6 // exaggerated so the difference is unambiguous
	run := func(cache bool) float64 {
		w := newWorld(t, spec, "bycore", 96)
		mod := New(Options{TopoDetectCost: detect, CacheTopology: cache})
		r := imb.Bcast(w, mod, 64<<10, imb.Opts{Iterations: 4, Warmup: 1})
		return r.AvgTime
	}
	cached := run(true)
	uncached := run(false)
	// Uncached pays the detection cost every timed iteration; cached only
	// in the (excluded) warmup.
	if uncached-cached < detect/2 {
		t.Fatalf("caching saved only %.1fus of the %.1fus detection cost",
			(uncached-cached)*1e6, detect*1e6)
	}
}

// The cached hierarchies belong to the communicator, and World.Reset mints a
// fresh world communicator: a CacheTopology module kept across resets must
// not pin the old ones. (When the module owned the cache, keyed by *Comm,
// every reset leaked one communicator and its 768 hierarchies.)
func TestCacheTopologyDiesWithComm(t *testing.T) {
	spec := miniCluster(true)
	spec.Nodes, spec.CoresPerSocket = 32, 12
	w := newWorld(t, spec, "bycore", 768)
	mod := New(Options{CacheTopology: true})
	// One buffer per rank, as in an MPI program: a shared one would have
	// every rank write what the others read.
	bufs := make([]*buffer.Buffer, w.Size())
	for i := range bufs {
		bufs[i] = buffer.NewPhantom(2048)
	}
	var base uint64
	for rep := 0; rep < 30; rep++ {
		w.Reset()
		err := w.Run(func(p *mpi.Proc) {
			mod.Bcast(p, w.WorldComm(), bufs[p.Rank()], 0)
		})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		switch {
		case rep == 2:
			base = ms.HeapAlloc
		case rep > 2 && (ms.HeapAlloc > base+base/10 || ms.HeapAlloc < base-base/10):
			t.Fatalf("rep %d: %d heap bytes live after GC, %d at rep 2: not flat within 10%%", rep, ms.HeapAlloc, base)
		}
	}
}
