package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"hierknem"
	"hierknem/internal/buffer"
)

// The test binary doubles as the engine-probe child (it is what
// os.Executable names under go test), and the workloads build cmd/hierbench
// relative to the repository root.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args[1:], "-engine-probe") {
		if err := engineProbeMain(slices.Contains(os.Args[1:], "-quick")); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(m.Run())
}

func TestFastFifth(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 4, 2, 3}, 1},                    // 5 samples: the fastest one
		{[]float64{6, 5, 4, 3, 2, 1}, 1.5},               // 6 samples: rounded up to two
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 1.5},  // 10 samples: two
		{[]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 50}, 1}, // 11 samples: three, outlier ignored
	} {
		if got := fastFifth(tc.xs); got != tc.want {
			t.Errorf("fastFifth(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(fastFifth(nil)) {
		t.Error("fastFifth(nil) should be NaN")
	}
}

func TestHiPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the rule must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n, pct int
		v      float64
	}{
		{5, 50, 3},     // too few samples: the median
		{19, 50, 10},   // still too few for anything above the median
		{20, 50, 10},   // exactly ten beyond p50
		{100, 90, 90},  // ten beyond p90
		{187, 94, 176}, // ceil(187*.94) = 176, eleven beyond; p95 would leave nine
		{5000, 99, 4950},
	} {
		pct, v := hiPercentile(ramp(tc.n))
		if pct != tc.pct || v != tc.v {
			t.Errorf("n=%d: p%d = %v, want p%d = %v", tc.n, pct, v, tc.pct, tc.v)
		}
		if beyond := tc.n - int(v); tc.n >= 20 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond p%d", tc.n, beyond, pct)
		}
	}
}

func TestProfileBucketing(t *testing.T) {
	for _, tc := range []struct {
		stack       []string // leaf first
		layer, kind string
	}{
		{[]string{"runtime.mapassign_fast64", "hierknem/internal/hier.Build", "hierknem/internal/core.(*Module).Bcast", "hierknem/internal/imb.Bcast.func1"}, "hier", "map"},
		{[]string{"runtime.memmove", "runtime.growslice", "runtime.mapassign_fast64", "hierknem/internal/mpi.(*Comm).Split"}, "mpi", "map"},
		{[]string{"runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc", "runtime.newobject", "hierknem/internal/fabric.(*Net).allocFlow"}, "fabric", "malloc"},
		{[]string{"runtime.futex", "runtime.goready", "runtime.chansend", "hierknem/internal/des.(*Engine).dispatch", "hierknem/internal/des.(*Proc).park", "hierknem/internal/mpi.(*Proc).Wait"}, "des", "sched"},
		{[]string{"hierknem/internal/des.(*eventHeap).popMin", "hierknem/internal/des.(*Engine).pop"}, "des", ""},
		{[]string{"sort.insertionSort", "sort.Slice", "hierknem/internal/core.physicalOrder"}, "core", ""},
		{[]string{"hierknem/internal/sweep.(*Ctx).World", "hierknem/internal/sweep.(*Sweep).runJob"}, "runtime", ""}, // not a cpu_share layer
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime", "gc"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime", "sched"},
		{[]string{"main.calibrate", "main.runSet", "main.main"}, "runtime", ""},
	} {
		if got := layerOf(tc.stack); got != tc.layer {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.layer)
		}
		if got := runtimeKind(tc.stack); got != tc.kind {
			t.Errorf("runtimeKind(%v) = %q, want %q", tc.stack, got, tc.kind)
		}
	}
}

// TestProfileShares feeds the decoder a hand-encoded profile.proto: two
// samples of 30 and 10 ms, one location with an inlined call.
func TestProfileShares(t *testing.T) {
	var msg []byte
	field := func(dst []byte, num int, wire int, payload ...byte) []byte {
		dst = binary.AppendUvarint(dst, uint64(num<<3|wire))
		if wire == 2 {
			dst = binary.AppendUvarint(dst, uint64(len(payload)))
		}
		return append(dst, payload...)
	}
	varints := func(vs ...uint64) (b []byte) {
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mapassign_fast64", "hierknem/internal/hier.Build", "hierknem/internal/des.(*Engine).dispatch", "runtime.gcBgMarkWorker"}
	for _, s := range strs {
		msg = field(msg, 6, 2, []byte(s)...)
	}
	for id, name := range []uint64{5, 6, 7, 8} { // function ids 1..4
		fn := field(nil, 1, 0, varints(uint64(id+1))...)
		fn = field(fn, 2, 0, varints(name)...)
		msg = field(msg, 5, 2, fn...)
	}
	location := func(id uint64, fns ...uint64) {
		loc := field(nil, 1, 0, varints(id)...)
		for _, fn := range fns {
			loc = field(loc, 4, 2, field(nil, 1, 0, varints(fn)...)...)
		}
		msg = field(msg, 4, 2, loc...)
	}
	location(1, 1, 2) // mapassign inlined into hier.Build
	location(2, 3)
	location(3, 4)
	// Sample 1: packed ids and values. Sample 2: unpacked.
	s1 := field(nil, 1, 2, varints(1, 2)...)
	s1 = field(s1, 2, 2, varints(3, 30_000_000)...)
	msg = field(msg, 2, 2, s1...)
	s2 := field(nil, 1, 0, varints(3)...)
	s2 = field(field(s2, 2, 0, varints(1)...), 2, 0, varints(10_000_000)...)
	msg = field(msg, 2, 2, s2...)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	shares, err := profileShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"hier.cpu_share": 0.75, "runtime.cpu_share": 0.25, "runtime.map_share": 0.75, "runtime.gc_share": 0.25}
	var sum float64
	for k, v := range shares {
		if v != want[k] {
			t.Errorf("%s = %v, want %v", k, v, want[k])
		}
		if strings.HasSuffix(k, ".cpu_share") {
			sum += v
		}
	}
	if sum != 1 {
		t.Errorf("cpu_share columns sum to %v, want 1", sum)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest holds BENCHMARK.json to the tables in metrics.go and both to
// the driver's alphabet and limits.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from bench -manifest; regenerate it with: go run ./bench -manifest > BENCHMARK.json")
	}
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the driver's alphabet", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is outside the driver's alphabet", name, unit)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range onDisk.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range onDisk.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range onDisk.PerLayer {
		check(m.Name, m.Unit)
	}
	if n := len(onDisk.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(onDisk.PerLayer) > 128 || len(onDisk.EndToEnd) > 16 || len(data) > 64<<10 {
		t.Error("BENCHMARK.json exceeds the driver's size limits")
	}
}

// printed parses what set.print writes as its last line.
func printed(t *testing.T, s *set) result {
	t.Helper()
	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ok := s.print()
	os.Stdout = stdout
	w.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if ok != res.Correct {
		t.Errorf("print returned %v but printed correct=%v", ok, res.Correct)
	}
	return res
}

// TestQuickSmoke runs every workload and every probe at the -quick shapes,
// traced, and two workloads untraced through the round scheduler, and holds
// the printed names to BENCHMARK.json.
func TestQuickSmoke(t *testing.T) {
	cfg := config{seed: 3, seconds: 1, quick: true}
	names := workloadNames()

	untraced, err := runSet(cfg, []string{"bcast_small"})
	if err != nil {
		t.Fatal(err)
	}
	res := printed(t, untraced)
	if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
		t.Errorf("untraced: %+v", res)
	}
	var want []string
	for _, d := range endToEnd {
		want = append(want, d.Name)
		if m := res.Metrics[d.Name]; m.Unit != d.Unit || !(m.Value > 0) {
			t.Errorf("untraced %s = %+v, want a positive value in %s", d.Name, m, d.Unit)
		}
	}
	if got := sortedKeys(res.Metrics); !slices.Equal(got, sorted2(want)) {
		t.Errorf("untraced run printed %v, BENCHMARK.json end_to_end is %v", got, want)
	}

	cfg.trace = true
	traced, err := runTraced(cfg, names)
	if err != nil {
		t.Fatal(err)
	}
	res = printed(t, traced)
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced: correct=%v failed=%d", res.Correct, res.Failed)
	}
	for _, name := range names {
		var sum float64
		for _, d := range perLayer {
			m, ok := res.Metrics[name+"."+d.Name]
			if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) {
				t.Errorf("traced %s.%s = %+v (present %v), want a value in %s", name, d.Name, m, ok, d.Unit)
			}
			if strings.HasSuffix(d.Name, ".cpu_share") {
				sum += m.Value
			}
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("%s: cpu_share columns sum to %v", name, sum)
		}
	}
	if len(res.Metrics) != len(names)*len(perLayer) {
		t.Errorf("traced run printed %d metrics, want %d", len(res.Metrics), len(names)*len(perLayer))
	}
	if _, err := os.Stat(tracePath); err != nil {
		t.Errorf("traced run wrote no trace: %v", err)
	}
}

func sorted2(xs []string) []string {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// corrupting flips one byte of what the rank after the root receives.
type corrupting struct{ hierknem.Module }

func (c corrupting) Bcast(p *hierknem.Proc, comm *hierknem.Comm, buf *buffer.Buffer, root int) {
	c.Module.Bcast(p, comm, buf, root)
	if comm.Rank(p) == (root+1)%comm.Size() {
		buf.Data()[0] ^= 1
	}
}

// TestVerificationCanFail proves the correctness pass is not vacuous: a
// module that delivers one wrong byte, and an expectation that no run
// reproduces, each count as a failed op.
func TestVerificationCanFail(t *testing.T) {
	target := newSimTarget(simDefs[0], true)
	if err := target.setupOnce(nil); err != nil {
		t.Fatal(err)
	}
	if n, failed := target.verify(11, nil); n != 1 || len(failed) != 0 {
		t.Fatalf("honest module: %d attempted, failed %v", n, failed)
	}
	target.mod = corrupting{target.mod}
	if _, failed := target.verify(12, nil); len(failed) != 1 || !strings.Contains(failed[0].Error(), "diverge") {
		t.Errorf("corrupted delivery went unnoticed: %v", failed)
	}

	m := &measurement{name: "bcast_small", t: newSimTarget(simDefs[0], true), cfg: config{quick: true}}
	if err := m.prepare(nil); err != nil {
		t.Fatal(err)
	}
	m.first.events++ // an expectation the deterministic run cannot meet
	m.op(nil, false)
	if len(m.failures) != 1 || len(m.samples) != 0 {
		t.Errorf("diverging op was not counted as failed: failures %v, samples %d", m.failures, len(m.samples))
	}
	if res := m.result(); res.Correct {
		t.Error("a failed op left the result correct")
	}
}

func TestJudge(t *testing.T) {
	runS := metricDef{"run_s", "s", "lower", 0.10}
	events := metricDef{"events_per_op", "count", "lower", exact}
	for _, tc := range []struct {
		def        metricDef
		base, next metric
		want       verdict
	}{
		{events, metric{Value: 147757}, metric{Value: 147757}, same},
		{events, metric{Value: 147757}, metric{Value: 147758}, worse},
		{events, metric{Value: 147757}, metric{Value: 147000}, better},
		{runS, metric{Value: 0.100, Spread: 0.02}, metric{Value: 0.105, Spread: 0.03}, within},
		{runS, metric{Value: 0.100, Spread: 0.02}, metric{Value: 0.115, Spread: 0.03}, worse},
		{runS, metric{Value: 0.100, Spread: 0.02}, metric{Value: 0.080, Spread: 0.03}, better},
		{runS, metric{Value: 0.100, Spread: 0.02}, metric{Value: 0.101, Spread: 0.12}, unresolved},
		{runS, metric{Value: 0.100, Spread: 0.15}, metric{Value: 0.150, Spread: 0.01}, unresolved},
	} {
		if got, _ := judge(tc.def, tc.base, tc.next); got != tc.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", tc.def.Name, tc.base, tc.next, got, tc.want)
		}
	}
}
