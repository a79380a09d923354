package fabric_test

import (
	"fmt"
	"testing"

	"hierknem"
	"hierknem/internal/buffer"
	"hierknem/internal/fabric"
)

// TestShadowOnCollectiveTraffic arms the shadow checker on the fabric of real
// simulated worlds, so every sync of three collectives is checked against the
// per-flow oracle on the bundle keys the MPI layer produces: cached net paths
// shared by many flows, per-record two-resource copy paths, and read sides on
// the L3 or on the memory bus with different per-core caps.
func TestShadowOnCollectiveTraffic(t *testing.T) {
	reduce := hierknem.ReduceArgs{Op: buffer.OpSum, Dtype: buffer.Float64}
	for _, tc := range []struct {
		name string
		spec hierknem.Spec
		op   func(mod hierknem.Module, p *hierknem.Proc, c *hierknem.Comm)
	}{
		{"parapluie-3-ring-allgather-128KB", hierknem.Parapluie(3), func(mod hierknem.Module, p *hierknem.Proc, c *hierknem.Comm) {
			const block = 128 << 10
			mod.Allgather(p, c, buffer.NewPhantom(block), buffer.NewPhantom(block*int64(c.Size())))
		}},
		{"stremi-2-bcast-1MB", hierknem.Stremi(2), func(mod hierknem.Module, p *hierknem.Proc, c *hierknem.Comm) {
			mod.Bcast(p, c, buffer.NewPhantom(1<<20), 0)
		}},
		{"stremi-2-reduce-1MB", hierknem.Stremi(2), func(mod hierknem.Module, p *hierknem.Proc, c *hierknem.Comm) {
			mod.Reduce(p, c, reduce, buffer.NewPhantom(1<<20), buffer.NewPhantom(1<<20), 0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := hierknem.NewWorld(tc.spec, "bycore", tc.spec.TotalCores())
			if err != nil {
				t.Fatal(err)
			}
			fab, eng := w.Machine.Fab, w.Machine.Eng
			var mismatch []string
			fabric.EnableShadow(fab, func(format string, args ...any) {
				mismatch = append(mismatch, fmt.Sprintf(format, args...))
			})
			// Sample the largest bundle every 10 µs of the first 20 ms.
			peak, samples := 0, 0
			var sample func()
			sample = func() {
				peak = max(peak, fabric.MaxBundle(fab))
				if samples++; samples < 2000 {
					eng.After(10e-6, sample)
				}
			}
			eng.After(10e-6, sample)

			mod := hierknem.ForCluster(&tc.spec)
			if err := w.Run(func(p *hierknem.Proc) { tc.op(mod, p, w.WorldComm()) }); err != nil {
				t.Fatal(err)
			}
			if len(mismatch) > 0 {
				t.Fatalf("%d shadow mismatches, the first: %s", len(mismatch), mismatch[0])
			}
			st := fab.Stats()
			if st.Syncs == 0 || st.Completions == 0 {
				t.Fatalf("the collective put no traffic on the fabric: %v", st)
			}
			if peak < 2 {
				t.Fatalf("no bundle held two flows at any sample (peak %d): the keys never matched", peak)
			}
			t.Logf("peak bundle %d flows; %v", peak, st)
		})
	}
}
