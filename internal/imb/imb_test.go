package imb

import (
	"errors"
	"math"
	"strings"
	"testing"

	"hierknem/internal/buffer"
	"hierknem/internal/core"
	"hierknem/internal/modules"
	"hierknem/internal/mpi"
	"hierknem/internal/topology"
)

func testWorld(t *testing.T, nodes, cores, np int) *mpi.World {
	t.Helper()
	m, err := topology.Build(topology.Spec{
		Name: "imbtest", Nodes: nodes, SocketsPerNode: 1, CoresPerSocket: cores,
		MemBandwidth: 10e9, CoreCopyBandwidth: 3e9, L3Bandwidth: 6e9,
		L3Size: 12 << 20, ShmLatency: 1e-6,
		NetBandwidth: 1e9, NetLatency: 10e-6, NetFullDuplex: true,
		EagerThreshold: 4096,
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

func TestBcastResultSane(t *testing.T) {
	w := testWorld(t, 2, 4, 8)
	r := Bcast(w, core.New(core.Options{}), 64<<10, Opts{Iterations: 3, Warmup: 1})
	if r.Op != "bcast" || r.Module != "hierknem" || r.Bytes != 64<<10 {
		t.Fatalf("metadata wrong: %+v", r)
	}
	if r.Iterations != 3 {
		t.Fatalf("iterations = %d", r.Iterations)
	}
	if r.AvgTime <= 0 || r.MinTime <= 0 || r.MaxTime < r.AvgTime || r.AvgTime < r.MinTime {
		t.Fatalf("times inconsistent: %+v", r)
	}
	want := AggregateBW("bcast", 8, 64<<10, r.AvgTime)
	if math.Abs(r.AggBW-want) > 1e-6*want {
		t.Fatalf("AggBW = %g, want %g", r.AggBW, want)
	}
}

func TestReduceAndAllgatherRun(t *testing.T) {
	mods := []modules.Module{core.New(core.Options{}), modules.Tuned(modules.Quirks{})}
	for _, mod := range mods {
		w := testWorld(t, 2, 4, 8)
		r := Reduce(w, mod, 32<<10, Opts{Iterations: 2, Warmup: 1})
		if r.Op != "reduce" || r.AvgTime <= 0 {
			t.Fatalf("%s reduce: %+v", mod.Name(), r)
		}
		w2 := testWorld(t, 2, 4, 8)
		r2 := Allgather(w2, mod, 16<<10, Opts{Iterations: 2, Warmup: 1})
		if r2.Op != "allgather" || r2.AvgTime <= 0 {
			t.Fatalf("%s allgather: %+v", mod.Name(), r2)
		}
	}
}

func TestRunOpRejectsBadInput(t *testing.T) {
	w := testWorld(t, 2, 2, 4)
	for _, tc := range []struct {
		op    string
		bytes int64
		opts  Opts
	}{
		{"barrier", 1024, Opts{}},
		{"bcast", -1, Opts{}},
		{"scatter", -1024, Opts{}},
		{"allgather", 1024, Opts{Iterations: -1}},
	} {
		if r, err := RunOp(w, core.New(core.Options{}), tc.op, tc.bytes, tc.opts); err == nil {
			t.Errorf("RunOp(%q, %d, %+v) = %+v, want an error", tc.op, tc.bytes, tc.opts, r)
		}
	}
}

// stalledBcast is a module whose Bcast receives from nobody.
type stalledBcast struct{ modules.Module }

func (stalledBcast) Bcast(p *mpi.Proc, c *mpi.Comm, buf *buffer.Buffer, root int) {
	p.Recv(c, buf, (c.Rank(p)+1)%c.Size(), 99)
}

// TestRunOpReturnsStall: a module that deadlocks makes RunOp return an error
// that unwraps to the *mpi.StallError, and imb.Bcast panics with that value.
func TestRunOpReturnsStall(t *testing.T) {
	mod := stalledBcast{core.New(core.Options{})}
	_, err := RunOp(testWorld(t, 1, 2, 2), mod, "bcast", 1024, Opts{})
	var se *mpi.StallError
	if !errors.As(err, &se) {
		t.Fatalf("RunOp error %v (%T), want one wrapping *mpi.StallError", err, err)
	}
	defer func() {
		if got, ok := recover().(error); !ok || !errors.As(got, &se) {
			t.Fatalf("Bcast panicked with %v, want the RunOp error", got)
		}
	}()
	Bcast(testWorld(t, 1, 2, 2), mod, 1024, Opts{})
}

func TestAggregateBWFormulas(t *testing.T) {
	if got := AggregateBW("bcast", 10, 100, 1); got != 900 {
		t.Fatalf("bcast agg = %g, want 900", got)
	}
	if got := AggregateBW("allgather", 10, 100, 1); got != 9000 {
		t.Fatalf("allgather agg = %g, want 9000", got)
	}
	if got := AggregateBW("reduce", 10, 100, 0); got != 0 {
		t.Fatalf("zero-time agg = %g", got)
	}
}

func TestRotateRootChangesTiming(t *testing.T) {
	// With root rotation the first iterations have different roots; on an
	// asymmetric topology this shows up as MaxTime > MinTime.
	w := testWorld(t, 2, 4, 8)
	r := Bcast(w, core.New(core.Options{}), 256<<10, Opts{Iterations: 8, Warmup: 0, RotateRoot: true})
	if r.MaxTime <= r.MinTime {
		t.Logf("rotation produced uniform times (possible but unusual): %+v", r)
	}
	// Fixed root must be deterministic: min == max.
	w2 := testWorld(t, 2, 4, 8)
	r2 := Bcast(w2, core.New(core.Options{}), 256<<10, Opts{Iterations: 4, Warmup: 1})
	if math.Abs(r2.MaxTime-r2.MinTime) > 1e-12+1e-6*r2.MaxTime {
		t.Fatalf("fixed-root iterations differ: min %g max %g", r2.MinTime, r2.MaxTime)
	}
}

func TestWarmupExcluded(t *testing.T) {
	// The warmup iteration (cold caches, first-touch) must not contribute
	// to the reported average: compare against a run with warmup counted.
	w := testWorld(t, 2, 4, 8)
	withWarm := Bcast(w, core.New(core.Options{}), 128<<10, Opts{Iterations: 3, Warmup: 1})
	if withWarm.Iterations != 3 {
		t.Fatalf("iterations = %d, want 3 (warmup excluded)", withWarm.Iterations)
	}
}

func TestRealBuffersMode(t *testing.T) {
	w := testWorld(t, 2, 2, 4)
	r := Bcast(w, core.New(core.Options{}), 8<<10, Opts{Iterations: 2, Warmup: 1, Real: true})
	if r.AvgTime <= 0 {
		t.Fatalf("real-mode run produced %+v", r)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Op: "bcast", Module: "hierknem", Bytes: 1024, AvgTime: 1e-3, AggBW: 5e8}
	s := r.String()
	for _, frag := range []string{"bcast", "hierknem", "1024"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q missing %q", s, frag)
		}
	}
}
