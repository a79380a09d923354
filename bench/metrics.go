package main

// metricDef is an end_to_end row of BENCHMARK.json. The tables below are the single
// source of the metric names, units and regression bounds: BENCHMARK.json is
// their rendering (bench -manifest), and a test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// exact is the bound of metrics that repeat bit for bit: any worsening at
// all is a regression. It is not zero only because a bound is a share of the
// parent's value and must leave room for "a third of the bound".
const exact = 1e-9

// endToEnd are the metrics a user of the simulator sees, printed for every
// workload by an untraced run. The two host times carry the widest bound the
// driver allows: ten runs per workload on this container, a 2-vCPU VM with
// busy neighbours, spread by 13 to 20 % of their median (README, "Noise
// policy"), and a bound below a metric's own spread rejects unchanged code. failed_share, the eighth end-to-end number,
// travels as the result's attempted and failed counts: it is zero on a
// healthy tree, and a bound is a share of the parent's value.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.01},
	{"alloc_mb_per_op", "MB", "lower", 0.02},
	{"mem_mb", "MB", "lower", 0.10},
	{"sim_us_per_op", "sim_us", "lower", exact},
	{"events_per_op", "count", "lower", exact},
}

// perLayerDef is a per_layer row of BENCHMARK.json: no bound.
type perLayerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// perLayer are the metrics of single layers, printed for every workload by
// a traced run.
var perLayer = func() []perLayerDef {
	var defs []perLayerDef
	for _, l := range layers {
		defs = append(defs, perLayerDef{l + ".cpu_share", "ratio", "lower"})
	}
	for _, k := range runtimeKinds {
		defs = append(defs, perLayerDef{"runtime." + k.kind + "_share", "ratio", "lower"})
	}
	return append(defs, []perLayerDef{
		{"des.events_per_s", "1/s", "higher"},
		{"des.ns_per_event", "ns", "lower"},
		{"des.pool_size", "count", "lower"},
		{"des.timer_ns", "ns", "lower"},
		{"des.switch_ns", "ns", "lower"},
		{"des.parkwake_ns", "ns", "lower"},
		{"des.parallel_ratio", "ratio", "lower"},
		{"des.phased_window_frac", "ratio", "higher"},
		{"fabric.syncs_per_op", "count", "lower"},
		{"fabric.fills_per_op", "count", "lower"},
		{"fabric.res_visits_per_op", "count", "lower"},
		{"fabric.flow_visits_per_op", "count", "lower"},
		{"fabric.merges_per_op", "count", "lower"},
		{"fabric.splits_per_op", "count", "lower"},
		{"fabric.completions_per_op", "count", "lower"},
		{"fabric.peak_components", "count", "lower"},
		{"fabric.flow_ns", "ns", "lower"},
		{"fabric.visits_per_flow", "count", "lower"},
		{"mpi.eager_intra_ns", "ns", "lower"},
		{"mpi.eager_inter_ns", "ns", "lower"},
		{"mpi.rndv_inter_ns", "ns", "lower"},
		{"mpi.events_per_msg", "count", "lower"},
		{"mpi.match_deep_ns", "ns", "lower"},
		{"mpi.barrier_ns_per_rank", "ns", "lower"},
		{"mpi.split_ms", "ms", "lower"},
		{"mpi.newworld_ms", "ms", "lower"},
		{"mpi.reset_ms", "ms", "lower"},
		{"mpi.bytes_cross_per_op", "B", "lower"},
		{"topology.build_ms", "ms", "lower"},
		{"topology.bind_ms", "ms", "lower"},
		{"imb.cold_ratio", "ratio", "lower"},
		{"knem.gets_per_op", "count", "lower"},
		{"knem.puts_per_op", "count", "lower"},
		{"knem.registrations_per_op", "count", "lower"},
		{"knem.bytes_copied_per_op", "B", "lower"},
		{"knem.get_ns", "ns", "lower"},
		{"knem.events_per_get", "count", "lower"},
		{"shm.copyinout_ns", "ns", "lower"},
		{"hier.build_us_per_rank", "us", "lower"},
		{"buffer.reduce_gbps", "GB/s", "higher"},
		{"buffer.copy_gbps", "GB/s", "higher"},
		{"sweep.job_overhead_us", "us", "lower"},
		{"sweep.parallel_speedup", "ratio", "higher"},
		{"runtime.gc_cycles_per_op", "count", "lower"},
		{"runtime.gc_pause_ms_per_op", "ms", "lower"},
		{"host.cores", "count", "higher"},
		{"host.calib_ms", "ms", "lower"},
		{"host.calib_spread", "ratio", "lower"},
		{"host.run_s_p50", "s", "lower"},
		{"host.run_s_hi", "s", "lower"},
		{"host.run_s_hi_pct", "%", "higher"},
		{"host.samples", "count", "higher"},
		{"trace.overhead_ratio", "ratio", "lower"},
	}...)
}()

// runSeconds is BENCHMARK.json's run_seconds and the default of -seconds.
const runSeconds = 15

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []perLayerDef `json:"per_layer"`
}

func buildManifest() manifest {
	m := manifest{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer}
	for _, d := range simDefs {
		m.Workloads = append(m.Workloads, workloadDef{d.name, d.why})
	}
	m.Workloads = append(m.Workloads, workloadDef{sweepName, sweepWhy})
	return m
}
