// Package asp implements the ASP benchmark the paper uses for its
// application study (Table II): the all-pairs shortest path problem solved
// with a parallel Floyd–Warshall algorithm.
//
// The N×N distance matrix is distributed over ranks in contiguous row
// blocks. Iteration k broadcasts row k from its owner to every rank (a
// message of N×8 bytes), after which each rank relaxes its own rows through
// vertex k. MPI_Bcast therefore dominates the application's communication
// time, which is why the paper uses ASP to show how collective improvements
// translate to applications.
package asp

import (
	"errors"
	"fmt"
	"math"

	"hierknem/internal/buffer"
	"hierknem/internal/modules"
	"hierknem/internal/mpi"
)

// Result is one ASP run's timing breakdown (virtual seconds).
type Result struct {
	N      int
	NP     int
	Module string
	Bcast  float64 // max over ranks of time spent in MPI_Bcast
	Total  float64 // max over ranks of total runtime
}

func (r Result) String() string {
	return fmt.Sprintf("ASP %dx%d np=%d %-9s bcast=%8.2fs total=%8.2fs (comm %4.1f%%)",
		r.N, r.N, r.NP, r.Module, r.Bcast, r.Total, 100*r.Bcast/r.Total)
}

// DefaultCellCost is the calibrated per-cell relaxation cost (seconds): one
// min(d[i][j], d[i][k]+d[k][j]) update including memory traffic, matched to
// the paper's compute-time residual (~77 s for the 16K problem on 768
// cores).
const DefaultCellCost = 13.7e-9

// rowRange returns the rows owned by rank r in a balanced block
// distribution.
func rowRange(n, np, r int) (lo, hi int) {
	base := n / np
	rem := n % np
	lo = r*base + min(r, rem)
	hi = lo + base
	if r < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// rowOwner returns the rank owning row k: the inverse of rowRange in closed
// form. The first n%np ranks own base+1 rows each, the rest base rows.
func rowOwner(n, np, k int) int {
	if k < 0 || k >= n {
		panic("asp: row out of range")
	}
	base := n / np
	rem := n % np
	if wide := rem * (base + 1); k >= wide {
		return rem + (k-wide)/base // base > 0 here: base == 0 means wide == n > k
	}
	return k / (base + 1)
}

// Run executes the ASP communication/computation skeleton with phantom
// payloads: the timing model of the real algorithm without allocating N²
// floats. cellCost is the per-cell relaxation cost (0 = DefaultCellCost).
// It reports an error, before any rank starts, for n < 1 or a negative or
// non-finite cellCost, and an error when the run itself fails.
func Run(w *mpi.World, mod modules.Module, n int, cellCost float64) (Result, error) {
	switch {
	case n < 1:
		return Result{}, fmt.Errorf("asp: %d vertices, need at least 1", n)
	case cellCost < 0 || math.IsNaN(cellCost) || math.IsInf(cellCost, 0):
		return Result{}, fmt.Errorf("asp: cell cost %g is not a finite non-negative time", cellCost)
	}
	if cellCost == 0 {
		cellCost = DefaultCellCost
	}
	np := w.Size()
	var maxBcast, maxTotal float64
	err := w.Run(func(p *mpi.Proc) {
		c := w.WorldComm()
		me := c.Rank(p)
		lo, hi := rowRange(n, np, me)
		myRows := hi - lo
		row := buffer.NewPhantom(int64(n) * 8)
		start := p.Now()
		bcast := 0.0
		for k := 0; k < n; k++ {
			owner := rowOwner(n, np, k)
			t0 := p.Now()
			mod.Bcast(p, c, row, owner)
			bcast += p.Now() - t0
			p.Compute(float64(myRows) * float64(n) * cellCost)
		}
		total := p.Now() - start
		if bcast > maxBcast {
			maxBcast = bcast
		}
		if total > maxTotal {
			maxTotal = total
		}
	})
	if err != nil {
		return Result{}, fmt.Errorf("asp: run failed: %w", err)
	}
	return Result{N: n, NP: np, Module: mod.Name(), Bcast: maxBcast, Total: maxTotal}, nil
}

// Inf is the "no edge" distance.
var Inf = math.Inf(1)

// Sequential solves all-pairs shortest paths in place with the classic
// Floyd–Warshall triple loop — the reference for correctness tests.
func Sequential(d [][]float64) {
	n := len(d)
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if v := dik + d[k][j]; v < d[i][j] {
					d[i][j] = v
				}
			}
		}
	}
}

// Solve runs the parallel algorithm with real data over the simulated
// cluster and returns the solved matrix (gathered at rank 0's block order).
// It verifies the distributed algorithm end to end: every rank relaxes its
// own block using the broadcast rows. It reports an error, before any rank
// starts, for an empty or non-square dist, and an error when the run
// itself fails.
func Solve(w *mpi.World, mod modules.Module, dist [][]float64) ([][]float64, error) {
	n := len(dist)
	if n < 1 {
		return nil, errors.New("asp: empty distance matrix")
	}
	for i, row := range dist {
		if len(row) != n {
			return nil, fmt.Errorf("asp: distance matrix is not square: row %d has %d entries, want %d", i, len(row), n)
		}
	}
	np := w.Size()
	out := make([][]float64, n)

	// Per-rank row blocks (simulation shares an address space; each rank
	// only touches its own block plus the broadcast row, as real MPI
	// ranks would).
	blocks := make([][][]float64, np)
	for r := 0; r < np; r++ {
		lo, hi := rowRange(n, np, r)
		blocks[r] = make([][]float64, hi-lo)
		for i := lo; i < hi; i++ {
			blocks[r][i-lo] = append([]float64(nil), dist[i]...)
		}
	}

	err := w.Run(func(p *mpi.Proc) {
		c := w.WorldComm()
		me := c.Rank(p)
		lo, _ := rowRange(n, np, me)
		mine := blocks[me]
		for k := 0; k < n; k++ {
			owner := rowOwner(n, np, k)
			var rowBuf *buffer.Buffer
			if me == owner {
				rowBuf = buffer.Float64s(mine[k-lo])
			} else {
				rowBuf = buffer.Float64s(make([]float64, n))
			}
			mod.Bcast(p, c, rowBuf, owner)
			rowK := buffer.AsFloat64s(rowBuf)
			for i := range mine {
				dik := mine[i][k]
				if math.IsInf(dik, 1) {
					continue
				}
				for j := 0; j < n; j++ {
					if v := dik + rowK[j]; v < mine[i][j] {
						mine[i][j] = v
					}
				}
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("asp: solve failed: %w", err)
	}
	for r := 0; r < np; r++ {
		lo, hi := rowRange(n, np, r)
		for i := lo; i < hi; i++ {
			out[i] = blocks[r][i-lo]
		}
	}
	return out, nil
}
