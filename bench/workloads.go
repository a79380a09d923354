package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"hierknem"
	"hierknem/internal/clusters"
	"hierknem/internal/imb"
	"hierknem/internal/mpi"
	"hierknem/internal/sweep"
	"hierknem/internal/topology"
)

// simDef declares one in-process workload. Every one takes the user path of
// cmd/hierbench: a world from hierknem.NewWorld, the module from
// ForCluster/Lineup without CacheTopology, phantom payloads, RotateRoot, and
// one world reused across ops through World.Reset (what sweep.Ctx.World
// does).
type simDef struct {
	name, why   string
	cluster     func(nodes int) hierknem.Spec
	nodes       int
	flat        bool   // Lineup(&spec)[1], the Tuned module, instead of HierKNEM
	op          string // imb op name, or "asp"
	bytes       int64
	verifyBytes int64 // smallest payload that takes the same module branch
	opts        imb.Opts
	aspN        int
}

var rotating = imb.Opts{Iterations: 3, Warmup: 1, RotateRoot: true}

var simDefs = []simDef{
	{name: "bcast_small", why: "HierKNEM Bcast 2KB on 768 ranks: latency regime below the eager cutoff; des, hier and mpi dominate, fabric is idle",
		cluster: hierknem.Stremi, nodes: 32, op: "bcast", bytes: 2 << 10, verifyBytes: 2 << 10, opts: rotating},
	{name: "bcast_large", why: "HierKNEM Bcast 1MB on 768 ranks: the paper's pipelined tree with KNEM overlap; every layer contributes, none dominates",
		cluster: hierknem.Stremi, nodes: 32, op: "bcast", bytes: 1 << 20, verifyBytes: 128 << 10, opts: rotating},
	{name: "reduce_large", why: "HierKNEM Reduce 1MB on 768 ranks: bcast_large's layers with data flowing to the root, ReduceLocal and the double-leader split",
		cluster: hierknem.Stremi, nodes: 32, op: "reduce", bytes: 1 << 20, verifyBytes: 72 << 10, opts: rotating},
	{name: "allgather_ring", why: "HierKNEM ring Allgather 128KB on 288 IB ranks: every NIC busy at once, so the fabric allocator dominates and hier is absent",
		cluster: hierknem.Parapluie, nodes: 12, op: "allgather", bytes: 128 << 10, verifyBytes: 256,
		opts: imb.Opts{Iterations: 1, Warmup: 1, RotateRoot: true}},
	{name: "flat_bcast", why: "Tuned chain Bcast 1MB on 768 ranks: control that bypasses hier, core, knem and shm; moves only with p2p, des and fabric",
		cluster: hierknem.Stremi, nodes: 32, flat: true, op: "bcast", bytes: 1 << 20, verifyBytes: 512 << 10, opts: rotating},
	{name: "asp", why: "ASP n=512 on 192 ranks: the paper's application, thousands of row broadcasts between compute sleeps, most allocation per op",
		cluster: hierknem.Stremi, nodes: 8, op: "asp", aspN: 512},
}

const (
	sweepName = "paper_sweep"
	sweepWhy  = "child hierbench -exp all on 2-node worlds: the command users run; all personalities, sweep and World.Reset churn, rendering"
)

func workloadNames() []string {
	var names []string
	for _, d := range simDefs {
		names = append(names, d.name)
	}
	return append(names, sweepName)
}

// counters are the exact, host-independent numbers one op leaves behind.
type counters struct {
	simUS      float64
	events     uint64
	bytesCross int64
	poolSize   int

	syncs, fills, resVisits, flowVisits, merges, splits, completions uint64
	peakComponents                                                   int

	gets, puts, registrations, bytesCopied int64
}

// collect adds what a finished run left on w.
func (c *counters) collect(w *hierknem.World, simSeconds float64) {
	c.simUS += simSeconds * 1e6
	c.events += w.Machine.Eng.Processed()
	c.bytesCross += w.BytesCross
	c.poolSize = max(c.poolSize, w.Machine.Eng.PoolSize())
	fs := w.Machine.Fab.Stats()
	c.syncs += fs.Syncs
	c.fills += fs.Fills
	c.resVisits += fs.ResourceVisits
	c.flowVisits += fs.FlowVisits
	c.merges += fs.Merges
	c.splits += fs.Splits
	c.completions += fs.Completions
	c.peakComponents = max(c.peakComponents, fs.PeakComponents)
	for _, d := range w.Knem {
		ks := d.Stats()
		c.gets += ks.Gets
		c.puts += ks.Puts
		c.registrations += ks.Registrations
		c.bytesCopied += ks.BytesCopied
	}
}

// target is one workload being measured. inproc is the part of an op that
// runs inside this process, where allocations, counters and the CPU profile
// can see it; host is the part that can only be timed from outside.
type target interface {
	// setupOnce builds a runnable job the way a user's first call does, and
	// keeps the first one built. With a recorder it builds step by step
	// instead, one span per layer.
	setupOnce(rec *recorder) error
	// verify runs the workload's correctness ops and returns one error per
	// failed op and the number attempted.
	verify(seed int64, rec *recorder) (attempted int, failed []error)
	// inproc runs the in-process part of one op.
	inproc(rec *recorder, rep int) counters
	// host runs the out-of-process part of one op; targets without one
	// return zero and the harness times inproc instead.
	host() (seconds, rssMB float64, err error)
}

// simTarget is an in-process workload on one reused world.
type simTarget struct {
	def  simDef
	spec hierknem.Spec
	np   int
	w    *hierknem.World
	mod  hierknem.Module
}

func newSimTarget(def simDef, quick bool) *simTarget {
	if quick {
		def.nodes = 4
		if def.op == "asp" {
			def.aspN = 64
		}
	}
	spec := def.cluster(def.nodes)
	return &simTarget{def: def, spec: spec, np: spec.Nodes * spec.CoresPerNode()}
}

func (t *simTarget) module() hierknem.Module {
	if t.def.flat {
		return hierknem.Lineup(&t.spec)[1]
	}
	return hierknem.ForCluster(&t.spec)
}

func (t *simTarget) setupOnce(rec *recorder) error {
	span := rec.begin("bench", "setup", -1)
	defer rec.end(span)
	w, err := buildWorld(t.spec, t.np, rec)
	if err != nil {
		return err
	}
	s := rec.begin("core", "module", -1)
	mod := t.module()
	rec.end(s)
	if t.w == nil {
		t.w, t.mod = w, mod
	}
	return nil
}

// buildWorld is hierknem.NewWorld; with a recorder it takes the same three
// steps itself so each gets a span.
func buildWorld(spec hierknem.Spec, np int, rec *recorder) (*hierknem.World, error) {
	if rec == nil {
		return hierknem.NewWorld(spec, "bycore", np)
	}
	s := rec.begin("topology", "topology.Build", -1)
	m, err := hierknem.Build(spec)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin("topology", "topology.ByCore", -1)
	b, err := topology.ByCore(m, np)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin("mpi", "mpi.NewWorld", -1)
	w, err := mpi.NewWorld(m, b, clusters.Config(&spec))
	rec.end(s)
	return w, err
}

func (t *simTarget) inproc(rec *recorder, rep int) counters {
	s := rec.begin("mpi", "World.Reset", rep)
	t.w.Reset()
	rec.end(s)
	var c counters
	if t.def.op == "asp" {
		s = rec.begin("asp", "asp.Run", rep)
		r := hierknem.RunASP(t.w, t.mod, t.def.aspN, 0)
		rec.end(s)
		c.collect(t.w, r.Total)
		return c
	}
	s = rec.begin("imb", "imb."+t.def.op, rep)
	r, err := imb.RunOp(t.w, t.mod, t.def.op, t.def.bytes, t.def.opts)
	rec.end(s)
	if err != nil {
		panic(err)
	}
	c.collect(t.w, r.AvgTime)
	return c
}

func (t *simTarget) host() (float64, float64, error) { return 0, 0, nil }

// sweepTarget is paper_sweep: a built cmd/hierbench run as a child process.
// A child's allocations, events and simulated times are invisible from
// outside, so those come from a replica grid run in this process: every
// personality of both clusters on the sweep's world shape, through the same
// sweep and World.Reset path.
type sweepTarget struct {
	args  []string
	sizes []int64 // the replica grid's message sizes
	want  []byte  // the verified stdout every timed run must reproduce
}

// sweepNodes is the size of the child's and the replica grid's worlds.
const sweepNodes = 2

func newSweepTarget(quick bool) *sweepTarget {
	n := strconv.Itoa(sweepNodes)
	t := &sweepTarget{sizes: []int64{2 << 10, 256 << 10},
		args: []string{"-exp", "all", "-nodes", n, "-iters", "1", "-asp-n", "128", "-asp-nodes", n}}
	if quick {
		t.args[1], t.sizes = "fig3a", t.sizes[:1]
	}
	return t
}

// hierbenchBin is the built cmd/hierbench.
var hierbenchBin string

// buildHierbench compiles cmd/hierbench into the benchmark's output
// directory, once.
func buildHierbench() error {
	if hierbenchBin != "" {
		return nil
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("bench must run from the repository root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "hierbench"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return err
	}
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/hierbench").CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/hierbench: %v\n%s", err, out)
	}
	hierbenchBin = bin
	return nil
}

// setupOnce is child start-up to usage exit: hierbench with no -exp. With a
// recorder it builds and resets one of the sweep's worlds in this process
// instead.
func (t *sweepTarget) setupOnce(rec *recorder) error {
	if rec != nil {
		span := rec.begin("bench", "setup", -1)
		defer rec.end(span)
		spec := hierknem.Stremi(sweepNodes)
		w, err := buildWorld(spec, spec.Nodes*spec.CoresPerNode(), rec)
		if err != nil {
			return err
		}
		// The grid's resets happen inside sweep.Ctx; time one here.
		s := rec.begin("mpi", "World.Reset", -1)
		w.Reset()
		rec.end(s)
		return nil
	}
	if err := buildHierbench(); err != nil {
		return err
	}
	err := exec.Command(hierbenchBin).Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) && ee.ExitCode() == 2 {
		return nil
	}
	return fmt.Errorf("hierbench without -exp: want usage exit 2, got %v", err)
}

func (t *sweepTarget) child(parallel int) (stdout []byte, seconds, rssMB float64, err error) {
	if err := buildHierbench(); err != nil {
		return nil, 0, 0, err
	}
	cmd := exec.Command(hierbenchBin, append(t.args[:len(t.args):len(t.args)], "-parallel", strconv.Itoa(parallel))...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, 0, err
	}
	peak := make(chan float64)
	stop := make(chan struct{})
	go func() { peak <- pollPeakRSS(cmd.Process.Pid, stop) }()
	err = cmd.Wait()
	seconds = time.Since(t0).Seconds()
	close(stop)
	rssMB = <-peak
	if err != nil {
		return nil, seconds, 0, fmt.Errorf("hierbench %v: %v\n%s", cmd.Args[1:], err, errb.Bytes())
	}
	return out.Bytes(), seconds, rssMB, nil
}

// pollPeakRSS reads the child's resident high-water mark until told to stop
// and returns the last reading in MB. The rusage the kernel hands to wait4
// cannot be used: a child started by vfork inherits the parent's own peak.
func pollPeakRSS(pid int, stop <-chan struct{}) (mb float64) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
			if _, rest, ok := bytes.Cut(data, []byte("VmHWM:")); ok {
				var kb float64
				if _, err := fmt.Sscan(string(rest), &kb); err == nil {
					mb = kb / 1024
				}
			}
		}
		select {
		case <-stop:
			return mb
		case <-tick.C:
		}
	}
}

func (t *sweepTarget) host() (float64, float64, error) {
	out, seconds, rss, err := t.child(1)
	if err == nil && t.want != nil && !bytes.Equal(out, t.want) {
		err = errors.New("hierbench -parallel 1 stdout differs from the verified -parallel 2 run")
	}
	return seconds, rss, err
}

// inproc runs the replica grid. Jobs run on one sweep worker, so their
// order, and with it every count, is fixed, and they may add to one sum.
func (t *sweepTarget) inproc(rec *recorder, rep int) counters {
	span := rec.begin("sweep", "sweep.Run", rep)
	defer rec.end(span)
	s := sweep.New("bench", 1, nil)
	var sum counters
	for _, cluster := range []func(int) hierknem.Spec{hierknem.Stremi, hierknem.Parapluie} {
		spec := cluster(sweepNodes)
		np := spec.Nodes * spec.CoresPerNode()
		for _, mod := range hierknem.Lineup(&spec) {
			for _, op := range []string{"bcast", "reduce", "allgather"} {
				for _, size := range t.sizes {
					sweep.Go(s, op, func(c *sweep.Ctx) struct{} {
						w := c.World(spec, "bycore", np)
						r, err := imb.RunOp(w, mod, op, size, imb.Opts{Iterations: 1, Warmup: 1, RotateRoot: true})
						if err != nil {
							panic(err)
						}
						sum.collect(w, r.AvgTime)
						return struct{}{}
					})
				}
			}
		}
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
	return sum
}
