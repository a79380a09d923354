package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"hierknem"
	"hierknem/internal/asp"
	"hierknem/internal/buffer"
	"hierknem/internal/coll"
)

// guard runs fn and turns a panic — the simulator's report of a stall or a
// failed run — into an error, so one bad op counts as failed instead of
// ending the benchmark.
func guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// verify runs the workload's module once on the timed world shape with real
// buffers filled from the seed, at the smallest payload that takes the same
// module branch, and compares every rank with internal/coll/reference.go.
// asp also solves a seeded graph against the sequential Floyd-Warshall.
func (t *simTarget) verify(seed int64, rec *recorder) (attempted int, failed []error) {
	rng := rand.New(rand.NewSource(seed))
	checks := []func() error{func() error { return t.verifyCollective(rng) }}
	if t.def.op == "asp" {
		checks = append(checks, func() error { return t.verifyASP(rng) })
	}
	for _, check := range checks {
		s := rec.begin("coll", "verify", -1)
		if err := guard(check); err != nil {
			failed = append(failed, fmt.Errorf("%s: verification: %w", t.def.name, err))
		}
		rec.end(s)
	}
	return len(checks), failed
}

func (t *simTarget) verifyCollective(rng *rand.Rand) error {
	op, n := t.def.op, int(t.def.verifyBytes)
	if op == "asp" {
		op, n = "bcast", t.def.aspN*8 // the row broadcast ASP is made of
	}
	np := t.np
	root := rng.Intn(np)
	t.w.Reset()
	w := t.w
	var bad []int
	var run func(p *hierknem.Proc)
	switch op {
	case "bcast":
		payload := make([]byte, n)
		rng.Read(payload)
		// Every rank expects the root's payload, so the reference is asked
		// for one copy, not np of them (384 MB for flat_bcast).
		want := coll.RefBcast([][]byte{payload}, 0)[0]
		run = func(p *hierknem.Proc) {
			c := w.WorldComm()
			me := c.Rank(p)
			buf := buffer.NewReal(make([]byte, n))
			if me == root {
				copy(buf.Data(), payload)
			}
			t.mod.Bcast(p, c, buf, root)
			if !bytes.Equal(buf.Data(), want) {
				bad = append(bad, me)
			}
		}
	case "reduce":
		args := hierknem.ReduceArgs{Op: buffer.OpSum, Dtype: buffer.Int64}
		inputs := make([][]byte, np)
		for r := range inputs {
			v := make([]int64, n/8)
			for i := range v {
				v[i] = rng.Int63n(1 << 40)
			}
			inputs[r] = buffer.Int64s(v).Data()
		}
		want := coll.RefReduce(args, inputs)
		run = func(p *hierknem.Proc) {
			c := w.WorldComm()
			me := c.Rank(p)
			sbuf := buffer.NewReal(append([]byte(nil), inputs[me]...))
			var rbuf *buffer.Buffer
			if me == root {
				rbuf = buffer.NewReal(make([]byte, n))
			}
			t.mod.Reduce(p, c, args, sbuf, rbuf, root)
			if me == root && !bytes.Equal(rbuf.Data(), want) {
				bad = append(bad, me)
			}
		}
	case "allgather":
		inputs := make([][]byte, np)
		for r := range inputs {
			inputs[r] = make([]byte, n)
			rng.Read(inputs[r])
		}
		want := coll.RefAllgather(inputs)
		run = func(p *hierknem.Proc) {
			c := w.WorldComm()
			me := c.Rank(p)
			rbuf := buffer.NewReal(make([]byte, n*np))
			t.mod.Allgather(p, c, buffer.NewReal(append([]byte(nil), inputs[me]...)), rbuf)
			if !bytes.Equal(rbuf.Data(), want) {
				bad = append(bad, me)
			}
		}
	default:
		return fmt.Errorf("no reference for op %q", op)
	}
	if err := w.Run(run); err != nil {
		return err
	}
	if len(bad) != 0 {
		return fmt.Errorf("%s %dB root %d: %d ranks diverge from the sequential reference (first: rank %d)",
			op, n, root, len(bad), bad[0])
	}
	return nil
}

func (t *simTarget) verifyASP(rng *rand.Rand) error {
	n := min(96, t.def.aspN)
	dist := make([][]float64, n)
	want := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			switch {
			case i == j:
			case rng.Intn(4) == 0:
				dist[i][j] = asp.Inf
			default:
				dist[i][j] = float64(1 + rng.Intn(100))
			}
		}
		want[i] = append([]float64(nil), dist[i]...)
	}
	asp.Sequential(want)
	t.w.Reset()
	got := hierknem.SolveASP(t.w, t.mod, dist)
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				return fmt.Errorf("SolveASP n=%d: d[%d][%d] = %g, sequential says %g", n, i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

// verify for paper_sweep: the child must exit 0 at -parallel 2, and every
// timed -parallel 1 run must then print the same bytes.
func (t *sweepTarget) verify(seed int64, rec *recorder) (attempted int, failed []error) {
	s := rec.begin("sweep", "hierbench -parallel 2", -1)
	out, _, _, err := t.child(2)
	rec.end(s)
	if err == nil && len(out) == 0 {
		err = errors.New("hierbench printed nothing")
	}
	if err != nil {
		return 1, []error{fmt.Errorf("%s: verification: %w", sweepName, err)}
	}
	t.want = out
	return 1, nil
}
