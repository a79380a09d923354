package core

import (
	"bytes"
	"errors"
	"testing"

	"hierknem/internal/buffer"
	"hierknem/internal/coll"
	"hierknem/internal/mpi"
)

// reuseRun is one pipelined call on a 3-node, 12-per-node miniCluster
// world with 64 KB segments: every rank passes n bytes, or odd passes
// oddN when oddN > 0. It returns each rank's result bytes (the Bcast's
// buffer, the root's reduced buffer) and the end time.
func reuseRun(t *testing.T, w *mpi.World, reduce bool, n, odd, oddN int) ([][]byte, float64, error) {
	t.Helper()
	mod := New(Options{BcastPipeline: FixedPipeline(64 << 10), ReducePipeline: FixedPipeline(64 << 10)})
	sum := coll.ReduceArgs{Op: buffer.OpSum, Dtype: buffer.Int64}
	out := make([][]byte, w.Size())
	err := w.Run(func(p *mpi.Proc) {
		c, me, size := w.WorldComm(), p.Rank(), n
		if me == odd && oddN > 0 {
			size = oddN
		}
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(me*7 + i*13)
		}
		if !reduce {
			buf := buffer.NewReal(make([]byte, size))
			if me == 0 {
				copy(buf.Data(), data)
			}
			mod.Bcast(p, c, buf, 0)
			out[me] = buf.Data()
			return
		}
		rbuf := buffer.NewReal(make([]byte, size))
		mod.Reduce(p, c, sum, buffer.NewReal(data), rbuf, 0)
		out[me] = rbuf.Data()
	})
	return out, w.Now(), err
}

// TestSteppedRecordsSurviveAStall: a Bcast or Reduce that stalls leaves
// ranks part-way through their role sequences (a non-leader mid-pipeline).
// After World.Reset, a correct call must move the same bytes and end at the
// same time as on a fresh world: every call arms its rank's whole record,
// whatever a stalled call left in it.
func TestSteppedRecordsSurviveAStall(t *testing.T) {
	spec := miniCluster(false)
	spec.Nodes = 3
	for _, tc := range []struct {
		name      string
		reduce    bool
		odd, oddN int
	}{
		{"Bcast", false, 24, 2 << 20},   // a node leader expects 32 segments, its parent sends 16
		{"Reduce", true, 25, 512 << 10}, // a 2nd leader runs 8 segments, its node 16
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := ppnWorld(t, spec, 12)
			var se *mpi.StallError
			if _, _, err := reuseRun(t, w, tc.reduce, 1<<20, tc.odd, tc.oddN); !errors.As(err, &se) {
				t.Fatalf("mismatched call: %v, want a stall", err)
			}
			w.Reset()
			got, end, err := reuseRun(t, w, tc.reduce, 1<<20, 0, 0)
			if err != nil {
				t.Fatalf("call after the stall and Reset: %v", err)
			}
			want, wantEnd, err := reuseRun(t, ppnWorld(t, spec, 12), tc.reduce, 1<<20, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			bad := 0
			for r := range want {
				if !bytes.Equal(got[r], want[r]) {
					bad++
				}
			}
			if bad > 0 || end != wantEnd {
				t.Errorf("after the stall and Reset: %d ranks differ, end %g; on a fresh world: end %g", bad, end, wantEnd)
			}
		})
	}
}
