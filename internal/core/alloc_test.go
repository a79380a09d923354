package core_test

import (
	"runtime"
	"strings"
	"testing"

	"hierknem/internal/buffer"
	"hierknem/internal/clusters"
	"hierknem/internal/coll"
	"hierknem/internal/core"
	"hierknem/internal/mpi"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// The collective control path — hierarchy, blackboard keys, waiter lists,
// communicator lookups, chain windows, phantom scratch — allocates next to
// nothing per call on a warm world; what is left is the per-call
// communicators the two Splits mint and the blackboard entries. Each row
// counts the mallocs of a second Run of several calls on the Stremi
// personality, per rank and call. The bounds sit between the garbage-free
// path (1.02, 1.51 and 1.31) and the string-keyed, map-indexed one it
// replaced (4.04, 10.35 and 50.94). The cached Bcast (0.42, no Split after
// the first Run) and the leader-based Allgather (0.89) hold their counts
// with the hierarchy built inside the role interpreter's stepped wait,
// whose record allocates nothing per call.
func TestCollectiveMallocsPerRankCall(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race buffer.NewPhantom's atomic add is a call, so coll.Like no longer inlines and phantom scratch escapes")
	}
	spec := clusters.Stremi(4)
	w, err := clusters.NewWorld(spec, "bycore", spec.TotalCores())
	if err != nil {
		t.Fatal(err)
	}
	mod := clusters.HierKNEM(&spec)
	cached, leader := *mod, *mod
	cached.Opt.CacheTopology = true
	leader.Opt.ForceAllgather = core.AllgatherLeader
	sum := coll.ReduceArgs{Op: buffer.OpSum, Dtype: buffer.Float64}
	const calls = 16
	for _, tc := range []struct {
		name  string
		size  int64 // sbuf's; rbuf's too but for the Allgather, whose rbuf holds every rank's block
		bound float64
		call  func(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer)
	}{
		{"Bcast 4KB", 4 << 10, 1.5, func(p *mpi.Proc, c *mpi.Comm, sbuf, _ *buffer.Buffer) { mod.Bcast(p, c, sbuf, 0) }},
		{"Bcast 1MB", 1 << 20, 3, func(p *mpi.Proc, c *mpi.Comm, sbuf, _ *buffer.Buffer) { mod.Bcast(p, c, sbuf, 0) }},
		{"Bcast 1MB cached", 1 << 20, 1, func(p *mpi.Proc, c *mpi.Comm, sbuf, _ *buffer.Buffer) { cached.Bcast(p, c, sbuf, 0) }},
		{"Reduce 1MB", 1 << 20, 3, func(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer) { mod.Reduce(p, c, sum, sbuf, rbuf, 0) }},
		{"Allgather leader 1KB", 1 << 10, 1.5, func(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf *buffer.Buffer) { leader.Allgather(p, c, sbuf, rbuf) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := w.Run(func(p *mpi.Proc) {
					rsize := tc.size
					if strings.HasPrefix(tc.name, "Allgather") {
						rsize *= int64(w.Size())
					}
					sbuf, rbuf := buffer.NewPhantom(tc.size), buffer.NewPhantom(rsize)
					for i := 0; i < calls; i++ {
						tc.call(p, w.WorldComm(), sbuf, rbuf)
					}
				})
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				return after.Mallocs - before.Mallocs
			}
			run() // warm the pools, the world communicator and its waiter arrays
			per := float64(run()) / float64(w.Size()*calls)
			t.Logf("%s: %.2f mallocs per rank and call", tc.name, per)
			if per > tc.bound {
				t.Errorf("%s costs %.2f mallocs per rank and call, want at most %g", tc.name, per, tc.bound)
			}
		})
	}
}

// TestSmallBcastMakesNoRoleTable: a world whose HierKNEM calls all take
// bcastSmall builds each hierarchy process-style, in one stepped wait, and
// never makes the role interpreter's per-rank table (the world's attribute
// slot); the first pipelined Bcast does.
func TestSmallBcastMakesNoRoleTable(t *testing.T) {
	spec := clusters.Stremi(4)
	w, err := clusters.NewWorld(spec, "bycore", spec.TotalCores())
	if err != nil {
		t.Fatal(err)
	}
	mod := clusters.HierKNEM(&spec)
	bcast := func(size int64) {
		err := w.Run(func(p *mpi.Proc) {
			buf := buffer.NewPhantom(size)
			for root := 0; root < 3; root++ {
				mod.Bcast(p, w.WorldComm(), buf, root*25)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if bcast(2 << 10); w.Attr() != nil {
		t.Errorf("2 KB Bcasts made the role table (%T)", w.Attr())
	}
	if bcast(1 << 20); w.Attr() == nil {
		t.Errorf("1 MB Bcasts made no role table")
	}
}
