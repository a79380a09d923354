package asp

import (
	"math"
	"math/rand"
	"testing"

	"hierknem/internal/core"
	"hierknem/internal/modules"
	"hierknem/internal/mpi"
	"hierknem/internal/topology"
)

func testWorld(t *testing.T, nodes, cores, np int) *mpi.World {
	t.Helper()
	m, err := topology.Build(topology.Spec{
		Name: "asptest", Nodes: nodes, SocketsPerNode: 1, CoresPerSocket: cores,
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

func randomGraph(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			switch {
			case i == j:
				d[i][j] = 0
			case rng.Float64() < 0.4:
				d[i][j] = float64(1 + rng.Intn(100))
			default:
				d[i][j] = Inf
			}
		}
	}
	return d
}

func TestRowRangePartition(t *testing.T) {
	for _, c := range []struct{ n, np int }{{10, 3}, {16, 4}, {7, 7}, {5, 8}, {100, 7}} {
		covered := 0
		prevHi := 0
		for r := 0; r < c.np; r++ {
			lo, hi := rowRange(c.n, c.np, r)
			if lo != prevHi {
				t.Fatalf("n=%d np=%d rank %d: lo=%d, want %d", c.n, c.np, r, lo, prevHi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != c.n {
			t.Fatalf("n=%d np=%d: covered %d rows", c.n, c.np, covered)
		}
	}
}

func TestRowOwnerConsistent(t *testing.T) {
	n, np := 23, 5
	for k := 0; k < n; k++ {
		r := rowOwner(n, np, k)
		lo, hi := rowRange(n, np, r)
		if k < lo || k >= hi {
			t.Fatalf("row %d assigned to rank %d owning [%d,%d)", k, r, lo, hi)
		}
	}
}

// rowOwnerScan is the linear scan rowOwner's closed form replaced, kept as
// its reference.
func rowOwnerScan(n, np, k int) int {
	for r := 0; r < np; r++ {
		if lo, hi := rowRange(n, np, r); k >= lo && k < hi {
			return r
		}
	}
	panic("asp: row out of range")
}

func TestRowOwnerMatchesScan(t *testing.T) {
	for _, c := range []struct {
		name  string
		n, np int
	}{
		{"divisible", 16, 4},
		{"bench shape", 512, 192},
		{"ragged", 23, 5},
		{"ragged rem=np-1", 27, 7},
		{"np == n", 7, 7},
		{"np > n", 5, 8},
		{"one rank", 9, 1},
	} {
		for k := 0; k < c.n; k++ {
			if got, want := rowOwner(c.n, c.np, k), rowOwnerScan(c.n, c.np, k); got != want {
				t.Errorf("%s: rowOwner(%d, %d, %d) = %d, scan says %d", c.name, c.n, c.np, k, got, want)
			}
		}
		for _, k := range []int{-1, c.n, c.n + c.np} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: rowOwner(%d, %d, %d) did not panic", c.name, c.n, c.np, k)
					}
				}()
				rowOwner(c.n, c.np, k)
			}()
		}
	}
}

func TestSequentialKnownGraph(t *testing.T) {
	d := [][]float64{
		{0, 5, Inf, 10},
		{Inf, 0, 3, Inf},
		{Inf, Inf, 0, 1},
		{Inf, Inf, Inf, 0},
	}
	Sequential(d)
	want := [][]float64{
		{0, 5, 8, 9},
		{Inf, 0, 3, 4},
		{Inf, Inf, 0, 1},
		{Inf, Inf, Inf, 0},
	}
	for i := range want {
		for j := range want[i] {
			if d[i][j] != want[i][j] {
				t.Fatalf("d[%d][%d] = %v, want %v", i, j, d[i][j], want[i][j])
			}
		}
	}
}

func TestSolveMatchesSequential(t *testing.T) {
	for _, mod := range []modules.Module{
		modules.Tuned(modules.Quirks{}),
		modules.Hierarch(modules.Quirks{}),
		core.New(core.Options{}),
	} {
		t.Run(mod.Name(), func(t *testing.T) {
			const n = 40
			g := randomGraph(n, 7)
			ref := make([][]float64, n)
			for i := range ref {
				ref[i] = append([]float64(nil), g[i]...)
			}
			Sequential(ref)

			w := testWorld(t, 2, 4, 8)
			got, err := Solve(w, mod, g)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					a, b := got[i][j], ref[i][j]
					if math.IsInf(a, 1) != math.IsInf(b, 1) || (!math.IsInf(a, 1) && math.Abs(a-b) > 1e-9) {
						t.Fatalf("d[%d][%d] = %v, want %v", i, j, a, b)
					}
				}
			}
		})
	}
}

func TestRunBreakdownSane(t *testing.T) {
	w := testWorld(t, 2, 4, 8)
	mod := core.New(core.Options{})
	res, err := Run(w, mod, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= 0 || res.Bcast <= 0 {
		t.Fatalf("non-positive times: %+v", res)
	}
	if res.Bcast > res.Total {
		t.Fatalf("bcast time %g exceeds total %g", res.Bcast, res.Total)
	}
	// Compute residual should roughly match the model: N iterations of
	// myRows*N*cellCost with myRows = 256/8 = 32.
	wantCompute := 256.0 * 32 * 256 * DefaultCellCost
	residual := res.Total - res.Bcast
	if residual < wantCompute*0.9 || residual > wantCompute*1.5 {
		t.Fatalf("compute residual %g, want ~%g", residual, wantCompute)
	}
}

// The application-level claim of Table II: a faster broadcast module lowers
// ASP total runtime, with compute unchanged.
func TestModuleChangesOnlyCommTime(t *testing.T) {
	resFast, err := Run(testWorld(t, 4, 6, 24), core.New(core.Options{}), 384, 0)
	if err != nil {
		t.Fatal(err)
	}
	resSlow, err := Run(testWorld(t, 4, 6, 24), modules.Tuned(modules.Quirks{}), 384, 0)
	if err != nil {
		t.Fatal(err)
	}
	computeFast := resFast.Total - resFast.Bcast
	computeSlow := resSlow.Total - resSlow.Bcast
	if math.Abs(computeFast-computeSlow) > 0.2*computeFast {
		t.Fatalf("compute residual should be module-independent: %g vs %g", computeFast, computeSlow)
	}
}
