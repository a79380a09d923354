package hierknem_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"hierknem"
	"hierknem/internal/asp"
	"hierknem/internal/buffer"
	"hierknem/internal/core"
	"hierknem/internal/des"
	"hierknem/internal/imb"
	"hierknem/internal/mpi"
)

func TestFacadeClusterPresets(t *testing.T) {
	s := hierknem.Stremi(32)
	p := hierknem.Parapluie(32)
	if s.TotalCores() != 768 || p.TotalCores() != 768 {
		t.Fatal("paper clusters should have 768 cores")
	}
}

func TestFacadeWorldConstruction(t *testing.T) {
	spec := hierknem.Parapluie(2)
	w, err := hierknem.NewWorld(spec, "bycore", 48)
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 48 {
		t.Fatalf("size = %d", w.Size())
	}
	wp, err := hierknem.NewWorldPPN(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if wp.Size() != 6 {
		t.Fatalf("ppn world size = %d, want 6", wp.Size())
	}
	if _, err := hierknem.NewWorldPPN(spec, 100); err == nil {
		t.Fatal("accepted ppn > cores per node")
	}
	for _, binding := range []string{"bycore", "bynode"} {
		for _, np := range []int{-1, 0, 49} {
			_, err := hierknem.NewWorld(spec, binding, np)
			want := fmt.Sprintf("topology: np %d out of range [1, 48]", np)
			if err == nil || err.Error() != want {
				t.Fatalf("NewWorld(%s, np=%d): err = %v, want %q", binding, np, err, want)
			}
		}
	}
	nan := spec
	nan.NetLatency = math.NaN()
	want := "topology: parapluie: NetLatency = NaN"
	if _, err := hierknem.NewWorld(nan, "bycore", 48); err == nil || err.Error() != want {
		t.Fatalf("NewWorld(NetLatency=NaN): err = %v, want %q", err, want)
	}
}

func TestFacadeLineupAndModules(t *testing.T) {
	spec := hierknem.Stremi(2)
	if got := len(hierknem.Lineup(&spec)); got != 4 {
		t.Fatalf("lineup size = %d", got)
	}
	if hierknem.ForCluster(&spec).Name() != "hierknem" {
		t.Fatal("ForCluster should build the hierknem module")
	}
	if hierknem.Tuned(hierknem.Quirks{}).Name() != "tuned" {
		t.Fatal("Tuned constructor broken")
	}
}

func TestFacadeEndToEndCollective(t *testing.T) {
	spec := hierknem.Parapluie(2)
	w, err := hierknem.NewWorld(spec, "bycore", 48)
	if err != nil {
		t.Fatal(err)
	}
	mod := hierknem.ForCluster(&spec)
	payload := []byte("through the facade")
	bad := 0
	err = w.Run(func(p *hierknem.Proc) {
		c := w.WorldComm()
		buf := buffer.NewReal(make([]byte, len(payload)))
		if c.Rank(p) == 5 {
			copy(buf.Data(), payload)
		}
		mod.Bcast(p, c, buf, 5)
		if string(buf.Data()) != string(payload) {
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

// TestFacadeBadRankPrograms: a rank program that deadlocks or leaves a
// request uncollected ends in a typed error at the facade, never a panic, a
// hang or a silent nil. A deadlock is a *mpi.StallError naming both pending
// receives (and still unwrapping to the engine's *des.DeadlockError); a
// rank body that returns holding a request it never waited on is a
// *mpi.UncollectedError naming the rank. A HierKNEM module given a
// non-positive segment size panics with a message naming the option (and,
// for a PipelineFunc, the message size and the value it returned), not
// with a division deep in the pipeline.
func TestFacadeBadRankPrograms(t *testing.T) {
	const mb = 1 << 20
	for _, tc := range []struct {
		name  string
		body  func(p *hierknem.Proc, c *hierknem.Comm)
		check func(t *testing.T, err error)
	}{
		{"deadlock", func(p *hierknem.Proc, c *hierknem.Comm) {
			p.Recv(c, buffer.NewReal(make([]byte, 8)), 1-c.Rank(p), 5)
		}, func(t *testing.T, err error) {
			var se *mpi.StallError
			if !errors.As(err, &se) {
				t.Fatalf("error is %T, want *mpi.StallError: %v", err, err)
			}
			var dl *des.DeadlockError
			if !errors.As(err, &dl) {
				t.Error("StallError must unwrap to *des.DeadlockError")
			}
			for _, want := range []string{"rank0: recv pending", "src=rank1 tag=5", "rank1: recv pending", "src=rank0 tag=5"} {
				if !strings.Contains(se.Report, want) {
					t.Errorf("stall report lacks %q:\n%s", want, se.Report)
				}
			}
		}},
		{"unmatched Irecv left uncollected", func(p *hierknem.Proc, c *hierknem.Comm) {
			if c.Rank(p) == 0 {
				p.Irecv(c, buffer.NewReal(make([]byte, 8)), 1, 5)
			}
		}, func(t *testing.T, err error) {
			var ue *mpi.UncollectedError
			if !errors.As(err, &ue) {
				t.Fatalf("error is %T, want *mpi.UncollectedError: %v", err, err)
			}
			if len(ue.Open) != 1 || ue.Open[0] != 1 {
				t.Errorf("Open = %v, want rank 0 holding 1 request", ue.Open)
			}
			if want := "rank0: recv pending ctx=0 src=rank1 tag=5"; !strings.Contains(ue.Report, want) {
				t.Errorf("report lacks %q:\n%s", want, ue.Report)
			}
		}},
		{"matched Isend never waited", func(p *hierknem.Proc, c *hierknem.Comm) {
			buf := buffer.NewPhantom(1 << 20)
			if c.Rank(p) == 0 {
				p.Isend(c, buf, 1, 5)
			} else {
				p.Recv(c, buf, 0, 5)
			}
		}, func(t *testing.T, err error) {
			var ue *mpi.UncollectedError
			if !errors.As(err, &ue) {
				t.Fatalf("error is %T, want *mpi.UncollectedError: %v", err, err)
			}
			if len(ue.Open) != 1 || ue.Open[0] != 1 || ue.Report != "" {
				t.Errorf("Open = %v, Report = %q; want rank 0 holding 1 completed request", ue.Open, ue.Report)
			}
			if want := "rank0 (1)"; !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}},
		{"FixedPipeline(0)", func(p *hierknem.Proc, c *hierknem.Comm) {
			mod := hierknem.New(hierknem.Options{BcastPipeline: core.FixedPipeline(0)})
			mod.Bcast(p, c, buffer.NewPhantom(mb), 0)
		}, wantPanic("core: FixedPipeline(0): the segment size must be positive")},
		{"BcastPipeline returning 0", func(p *hierknem.Proc, c *hierknem.Comm) {
			mod := hierknem.New(hierknem.Options{BcastPipeline: func(int64) int64 { return 0 }})
			mod.Bcast(p, c, buffer.NewPhantom(mb), 0)
		}, wantPanic("core: BcastPipeline returned a segment size of 0 for a 1048576-byte message")},
		{"ReducePipeline returning -1", func(p *hierknem.Proc, c *hierknem.Comm) {
			mod := hierknem.New(hierknem.Options{ReducePipeline: func(int64) int64 { return -1 }})
			sum := hierknem.ReduceArgs{Op: buffer.OpSum, Dtype: buffer.Int64}
			mod.Reduce(p, c, sum, buffer.NewPhantom(mb), buffer.NewPhantom(mb), 0)
		}, wantPanic("core: ReducePipeline returned a segment size of -1 for a 1048576-byte message")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := hierknem.NewWorld(hierknem.Parapluie(1), "bycore", 2)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, runRecovering(w, func(p *hierknem.Proc) { tc.body(p, w.WorldComm()) }))
		})
	}
}

// runRecovering is w.Run(body), with a panic out of it returned as an error
// reading "panic: " and the panic value.
func runRecovering(w *hierknem.World, body func(p *hierknem.Proc)) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return w.Run(body)
}

// wantPanic checks that the run panicked with a message starting with msg.
func wantPanic(msg string) func(t *testing.T, err error) {
	return func(t *testing.T, err error) {
		if err == nil || !strings.HasPrefix(err.Error(), "panic: "+msg) {
			t.Errorf("Run returned %v, want a panic starting with %q", err, msg)
		}
	}
}

func TestFacadeBenchmarks(t *testing.T) {
	spec := hierknem.Parapluie(2)
	mod := hierknem.ForCluster(&spec)
	opts := imb.Opts{Iterations: 2, Warmup: 1}
	w1, _ := hierknem.NewWorld(spec, "bycore", 48)
	if r := hierknem.BenchBcast(w1, mod, 64<<10, opts); r.AvgTime <= 0 {
		t.Fatalf("bcast bench: %+v", r)
	}
	w2, _ := hierknem.NewWorld(spec, "bycore", 48)
	if r := hierknem.BenchReduce(w2, mod, 64<<10, opts); r.AvgTime <= 0 {
		t.Fatalf("reduce bench: %+v", r)
	}
	w3, _ := hierknem.NewWorld(spec, "bycore", 48)
	if r := hierknem.BenchAllgather(w3, mod, 16<<10, opts); r.AvgTime <= 0 {
		t.Fatalf("allgather bench: %+v", r)
	}
}

func TestFacadeASP(t *testing.T) {
	spec := hierknem.Stremi(2)
	w, _ := hierknem.NewWorld(spec, "bycore", 48)
	res := hierknem.RunASP(w, hierknem.ForCluster(&spec), 192, 0)
	if res.Total <= 0 || res.Bcast <= 0 || res.Bcast > res.Total {
		t.Fatalf("asp result: %+v", res)
	}
}

// TestASPRejectsBadInput: asp.Run and asp.Solve turn bad input into an
// error before any rank starts, instead of panicking deep in a rank or
// printing NaN; the facade panics with that same error.
func TestASPRejectsBadInput(t *testing.T) {
	spec := hierknem.Stremi(1)
	mod := hierknem.ForCluster(&spec)
	ragged := [][]float64{{0, 1}, {1}}
	for _, tc := range []struct {
		name string
		run  func(w *hierknem.World) error
		want string
	}{
		{"n=-5", func(w *hierknem.World) error { _, err := asp.Run(w, mod, -5, 0); return err }, "-5 vertices"},
		{"n=0", func(w *hierknem.World) error { _, err := asp.Run(w, mod, 0, 0); return err }, "0 vertices"},
		{"cellCost=-1", func(w *hierknem.World) error { _, err := asp.Run(w, mod, 8, -1); return err }, "cell cost -1"},
		{"cellCost=NaN", func(w *hierknem.World) error { _, err := asp.Run(w, mod, 8, math.NaN()); return err }, "cell cost NaN"},
		{"cellCost=+Inf", func(w *hierknem.World) error { _, err := asp.Run(w, mod, 8, math.Inf(1)); return err }, "cell cost +Inf"},
		{"ragged", func(w *hierknem.World) error { _, err := asp.Solve(w, mod, ragged); return err }, "row 1 has 1 entries, want 2"},
		{"empty", func(w *hierknem.World) error { _, err := asp.Solve(w, mod, nil); return err }, "empty distance matrix"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := hierknem.NewWorld(spec, "bycore", 4)
			if err != nil {
				t.Fatal(err)
			}
			err = tc.run(w)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want one mentioning %q", err, tc.want)
			}
			if n := w.Machine.Eng.Processed(); n != 0 {
				t.Fatalf("%d events ran before the input was rejected", n)
			}
		})
	}
	t.Run("facade panics with the error", func(t *testing.T) {
		w, err := hierknem.NewWorld(spec, "bycore", 4)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			r, _ := recover().(error)
			if r == nil || !strings.Contains(r.Error(), "0 vertices") {
				t.Fatalf("RunASP(n=0) panicked with %v, want asp's error", r)
			}
		}()
		hierknem.RunASP(w, mod, 0, 0)
	})
}
