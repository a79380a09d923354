package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

type config struct {
	seed    int64
	seconds float64 // measured time per workload
	trace   bool
	quick   bool // 4-node shapes, two ops per workload, trimmed probes
}

// rounds is how many interleaved rounds a set is cut into. A workload runs
// ops in round r until it has used (r+1)/rounds of its time, so every
// workload samples the whole window and a noisy stretch hits all alike.
const rounds = 24

// setupBatch constructions are timed back to back and divided; one
// construction alone is too short to repeat.
const setupBatch = 20

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is the estimator's split-half spread inside the set; only
	// result files carry it.
	Spread float64 `json:"spread,omitempty"`
}

// result is one workload's outcome, in the shape the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info holds unguarded readings printed beside the metrics.
	Info map[string]metric `json:"info,omitempty"`
}

// set is one run of the benchmark over some workloads: the result file.
type set struct {
	Go          string             `json:"go"`
	Cores       int                `json:"host.cores"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Quick       bool               `json:"quick,omitempty"`
	CalibMS     float64            `json:"host.calib_ms"`
	CalibSpread float64            `json:"host.calib_spread"`
	Noisy       bool               `json:"noisy"`
	Order       []string           `json:"order"`
	Workloads   map[string]*result `json:"workloads"`
}

// sample is the host-side reading of one op.
type sample struct {
	runS    float64 // what the user waits for: the child if there is one, else the in-process part
	inS     float64 // the in-process part alone
	mallocs float64
	allocMB float64
	rssMB   float64
	gcs     float64
	pauseMS float64
}

// measurement is one workload's state during a set.
type measurement struct {
	name      string
	t         target
	cfg       config
	attempted int
	failures  []error
	used      float64 // seconds of measured time consumed
	setup     []float64
	samples   []sample
	first     *counters // every later op must reproduce its simulated time and events
	retained  float64   // mem_mb for in-process targets
}

func newTarget(name string, quick bool) (target, error) {
	if name == sweepName {
		return newSweepTarget(quick), nil
	}
	for _, d := range simDefs {
		if d.name == name {
			return newSimTarget(d, quick), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q; known: %v", name, workloadNames())
}

func (m *measurement) fail(err error) {
	m.failures = append(m.failures, err)
	fmt.Printf("FAILED %v\n", err)
}

// prepare builds the job, checks its outputs and runs the warm-up op that
// fills the world's pools and fixes the expected counts.
func (m *measurement) prepare(rec *recorder) error {
	if err := m.t.setupOnce(rec); err != nil {
		return fmt.Errorf("%s: set-up: %w", m.name, err)
	}
	n, failed := m.t.verify(m.cfg.seed, rec)
	m.attempted += n
	for _, err := range failed {
		m.fail(err)
	}
	m.op(nil, false)
	m.samples, m.used = nil, 0
	return nil
}

// op runs one op and records its sample.
func (m *measurement) op(rec *recorder, inprocOnly bool) {
	m.attempted++
	rep := len(m.samples)
	var before, after runtime.MemStats
	var c counters
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	span := rec.begin("bench", "op", rep)
	err := guard(func() error { c = m.t.inproc(rec, rep); return nil })
	rec.end(span)
	s := sample{inS: time.Since(t0).Seconds()}
	runtime.ReadMemStats(&after)
	s.runS = s.inS
	s.mallocs = float64(after.Mallocs - before.Mallocs)
	s.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	s.gcs = float64(after.NumGC - before.NumGC)
	s.pauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	if err == nil && !inprocOnly {
		var hostS float64
		if hostS, s.rssMB, err = m.t.host(); hostS > 0 {
			s.runS = hostS
		}
	}
	m.used += time.Since(t0).Seconds()
	switch {
	case err != nil:
		m.fail(fmt.Errorf("%s op %d: %w", m.name, rep, err))
		return
	case m.first == nil:
		m.first = &c
	case math.Float64bits(c.simUS) != math.Float64bits(m.first.simUS) || c.events != m.first.events:
		m.fail(fmt.Errorf("%s op %d: simulated %v us in %d events, the first op %v us in %d: the run is not deterministic",
			m.name, rep, c.simUS, c.events, m.first.simUS, m.first.events))
		return
	}
	m.samples = append(m.samples, s)
}

// sampleSetup times a batch of constructions with the collector paused, and
// collects the garbage afterwards, outside the reading. A batch is a few
// milliseconds long; whether a collection cycle happened to start inside it
// moved the reading between 0.4 and 1 ms per world.
func (m *measurement) sampleSetup(batch int) {
	t0 := time.Now()
	gc := debug.SetGCPercent(-1)
	for i := 0; i < batch; i++ {
		if err := m.t.setupOnce(nil); err != nil {
			debug.SetGCPercent(gc)
			m.fail(fmt.Errorf("%s: set-up: %w", m.name, err))
			return
		}
	}
	el := time.Since(t0).Seconds()
	debug.SetGCPercent(gc)
	runtime.GC()
	m.used += time.Since(t0).Seconds()
	m.setup = append(m.setup, el/float64(batch))
}

// round runs the workload's share of round r.
func (m *measurement) round(r int) {
	if m.cfg.quick {
		if r == 0 {
			m.sampleSetup(2)
		}
		if r < 2 {
			m.op(nil, false)
		}
		return
	}
	allowance := m.cfg.seconds * float64(r+1) / rounds
	if m.used < allowance {
		m.sampleSetup(setupBatch)
	}
	for m.used < allowance {
		m.op(nil, false)
	}
}

// liveMB is the heap still reachable after a forced collection. HeapAlloc,
// not HeapInuse: spans the world shares with other live objects made the
// in-use reading of one world move by 13 % from run to run, where the
// reachable bytes repeat to 0.02 %.
func liveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// release reads what the workload's world holds after its last op — the
// live heap with the world reachable less the live heap without it — and
// drops the world.
func (m *measurement) release() {
	with := liveMB()
	runtime.KeepAlive(m.t)
	m.t = nil
	m.retained = with - liveMB()
}

// units maps every metric of BENCHMARK.json to its unit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, d := range endToEnd {
		u[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		u[d.Name] = d.Unit
	}
	return u
}()

// put records a metric of BENCHMARK.json under its declared unit.
func (r *result) put(name string, v, spread float64) {
	unit, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, Spread: spread}
}

// tailOf reports the unguarded readings printed beside run_s: the median,
// and the highest percentile that still has ten samples beyond it.
func tailOf(runS []float64) map[string]metric {
	pct, hi := hiPercentile(runS)
	return map[string]metric{
		"host.run_s_p50":    {Value: median(runS), Unit: units["host.run_s_p50"]},
		"host.run_s_hi":     {Value: hi, Unit: units["host.run_s_hi"]},
		"host.run_s_hi_pct": {Value: float64(pct), Unit: units["host.run_s_hi_pct"]},
		"host.samples":      {Value: float64(len(runS)), Unit: units["host.samples"]},
	}
}

func column(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

func (m *measurement) result() *result {
	res := &result{Attempted: m.attempted, Failed: len(m.failures), Correct: len(m.failures) == 0,
		Metrics: map[string]metric{}, Info: map[string]metric{}}
	if len(m.samples) == 0 || m.first == nil {
		res.Correct = false
		return res
	}
	runS := column(m.samples, func(s sample) float64 { return s.runS })
	memMB := m.retained
	if rss := column(m.samples, func(s sample) float64 { return s.rssMB }); rss[0] > 0 {
		memMB = median(rss)
	}
	allocs := column(m.samples, func(s sample) float64 { return s.mallocs })
	allocMB := column(m.samples, func(s sample) float64 { return s.allocMB })
	res.put("setup_s", fastFifth(m.setup), splitSpread(m.setup, fastFifth))
	res.put("run_s", fastFifth(runS), splitSpread(runS, fastFifth))
	res.put("allocs_per_op", median(allocs), splitSpread(allocs, median))
	res.put("alloc_mb_per_op", median(allocMB), splitSpread(allocMB, median))
	res.put("mem_mb", memMB, 0)
	res.put("sim_us_per_op", m.first.simUS, 0)
	res.put("events_per_op", float64(m.first.events), 0)

	res.Info["failed_share"] = metric{Value: float64(res.Failed) / float64(res.Attempted), Unit: "ratio"}
	for k, v := range tailOf(runS) {
		res.Info[k] = v
	}
	return res
}

// calibrate runs a fixed pure-Go kernel — integer mixing, map updates and
// loads from a small heap array, all cache-resident — and returns its time
// in ms. It allocates nothing and is bound by instruction throughput, which
// is what a busy sibling hardware thread takes away from the simulator. It
// never rescales a metric; it only tells a quiet host from a noisy one.
func calibrate() float64 {
	if calibMap == nil {
		calibMap = make(map[uint32]uint32, 1<<10)
		calibHeap = make([]uint32, 1<<12)
	}
	t0 := time.Now()
	x := uint32(2463534242)
	for i := 0; i < 300000; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		calibMap[x&0x3ff] += calibHeap[x>>20]
		calibHeap[x>>20] = x
	}
	return time.Since(t0).Seconds() * 1e3
}

var (
	calibMap  map[uint32]uint32
	calibHeap []uint32
)

func newSet(cfg config, names []string) *set {
	return &set{Go: runtime.Version(), Cores: runtime.NumCPU(), Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace, Quick: cfg.quick, Order: names, Workloads: map[string]*result{}}
}

func (s *set) calibrated(calib []float64) {
	s.CalibMS = median(calib)
	s.CalibSpread = s.CalibMS / sorted(calib)[0]
	s.Noisy = s.CalibSpread > 1.10
}

// runSet measures the named workloads untraced, interleaved in rounds.
func runSet(cfg config, names []string) (*set, error) {
	out := newSet(cfg, names)
	var ms []*measurement
	for _, name := range names {
		t, err := newTarget(name, cfg.quick)
		if err != nil {
			return nil, err
		}
		m := &measurement{name: name, t: t, cfg: cfg}
		if err := m.prepare(nil); err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	n := rounds
	if cfg.quick {
		n = 2
	}
	var calib []float64
	for r := 0; r < n; r++ {
		calib = append(calib, calibrate())
		for i := range ms {
			ms[(i+r)%len(ms)].round(r)
		}
	}
	for _, m := range ms {
		m.release()
		out.Workloads[m.name] = m.result()
	}
	out.calibrated(calib)
	return out, nil
}

// runTraced measures the named workloads one after another with spans, a CPU
// profile and the layer probes, and writes the trace file. Its host times
// carry the tracing overhead; end-to-end numbers come from runSet.
func runTraced(cfg config, names []string) (*set, error) {
	out := newSet(cfg, names)
	rec := newRecorder()
	var calib []float64
	shared := map[string]float64{}
	for i, name := range names {
		calib = append(calib, calibrate())
		rec.workload = i
		res, err := traceWorkload(cfg, name, rec)
		if err != nil {
			return nil, err
		}
		out.Workloads[name] = res
	}
	calib = append(calib, calibrate())
	if err := runProbes(cfg, shared); err != nil {
		return nil, err
	}
	calib = append(calib, calibrate())
	out.calibrated(calib)
	shared["host.cores"] = float64(out.Cores)
	shared["host.calib_ms"] = out.CalibMS
	shared["host.calib_spread"] = out.CalibSpread
	for _, res := range out.Workloads {
		for k, v := range shared {
			res.put(k, v, 0)
		}
	}
	return out, rec.write(tracePath, names)
}

func traceWorkload(cfg config, name string, rec *recorder) (*result, error) {
	t, err := newTarget(name, cfg.quick)
	if err != nil {
		return nil, err
	}
	m := &measurement{name: name, t: t, cfg: cfg}

	// Set-up spans, and the first op on a world nothing has run on.
	setups, coldS := 5, 0.0
	if cfg.quick {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		fresh, err := newTarget(name, cfg.quick)
		if err != nil {
			return nil, err
		}
		if err := fresh.setupOnce(rec); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		if i == 0 {
			cold := &measurement{name: name, t: fresh, cfg: cfg}
			cold.op(nil, true)
			m.attempted, m.failures = cold.attempted, cold.failures
			if len(cold.samples) == 1 {
				coldS = cold.samples[0].inS
			}
		}
	}
	if err := m.prepare(rec); err != nil {
		return nil, err
	}

	// Untraced ops: the base for the overhead ratio, and the counts.
	budget, reps := cfg.seconds*0.3, 0
	for (cfg.quick && reps < 2) || (!cfg.quick && m.used < budget) {
		m.op(nil, false)
		reps++
	}
	plain := m.samples

	// Traced ops: spans around every call into a layer, under the profiler.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	m.samples, m.used, reps = nil, 0, 0
	budget = cfg.seconds * 0.4
	for (cfg.quick && reps < 2) || (!cfg.quick && m.used < budget) {
		m.op(rec, true)
		reps++
	}
	pprof.StopCPUProfile()
	traced := m.samples

	res := &result{Attempted: m.attempted, Failed: len(m.failures), Correct: len(m.failures) == 0, Metrics: map[string]metric{}}
	if len(plain) == 0 || len(traced) == 0 || m.first == nil {
		res.Correct = false
		return res, nil
	}
	shares, err := profileShares(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("%s: CPU profile: %w", name, err)
	}
	for k, v := range shares {
		res.put(k, v, 0)
	}

	inS := column(plain, func(s sample) float64 { return s.inS })
	runS := column(plain, func(s sample) float64 { return s.runS })
	warm := fastFifth(inS)
	ops := float64(len(plain))
	sum := func(f func(sample) float64) float64 {
		var t float64
		for _, s := range plain {
			t += f(s)
		}
		return t
	}
	c := m.first
	put := func(name string, v float64) { res.put(name, v, 0) }
	put("des.events_per_s", float64(c.events)/warm)
	put("des.ns_per_event", warm*1e9/float64(c.events))
	put("des.pool_size", float64(c.poolSize))
	put("fabric.syncs_per_op", float64(c.syncs))
	put("fabric.fills_per_op", float64(c.fills))
	put("fabric.res_visits_per_op", float64(c.resVisits))
	put("fabric.flow_visits_per_op", float64(c.flowVisits))
	put("fabric.merges_per_op", float64(c.merges))
	put("fabric.splits_per_op", float64(c.splits))
	put("fabric.completions_per_op", float64(c.completions))
	put("fabric.peak_components", float64(c.peakComponents))
	put("mpi.bytes_cross_per_op", float64(c.bytesCross))
	put("knem.gets_per_op", float64(c.gets))
	put("knem.puts_per_op", float64(c.puts))
	put("knem.registrations_per_op", float64(c.registrations))
	put("knem.bytes_copied_per_op", float64(c.bytesCopied))
	put("runtime.gc_cycles_per_op", sum(func(s sample) float64 { return s.gcs })/ops)
	put("runtime.gc_pause_ms_per_op", sum(func(s sample) float64 { return s.pauseMS })/ops)
	put("imb.cold_ratio", coldS/warm)
	put("trace.overhead_ratio", fastFifth(column(traced, func(s sample) float64 { return s.inS }))/warm)
	for k, v := range tailOf(runS) {
		res.Metrics[k] = v
	}
	for _, sp := range []struct{ metric, span string }{
		{"topology.build_ms", "topology.Build"}, {"topology.bind_ms", "topology.ByCore"},
		{"mpi.newworld_ms", "mpi.NewWorld"}, {"mpi.reset_ms", "World.Reset"},
	} {
		put(sp.metric, fastFifth(rec.seconds(sp.span))*1e3)
	}
	return res, nil
}
