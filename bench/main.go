// Command bench is the repository's benchmark: seven named workloads run in a
// closed loop by one client, with host-time and simulated-time end-to-end
// metrics and per-layer attribution measured from outside the simulator.
// BENCHMARK.json at the repository root describes it; README.md in this
// directory defines every workload and metric.
//
//	go run ./bench                          # every workload, untraced
//	go run ./bench -trace 1                 # per-layer metrics + bench/out/trace.json
//	go run ./bench -workload asp -seed 7    # one workload, another seed
//	go run ./bench -out a.json              # also write the result file
//	go run ./bench -compare a.json b.json   # apply the bounds to two result files
//	go run ./bench -selfcheck               # two sets of this tree, compared
//	go run ./bench -quick                   # smoke: small shapes, two ops each
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

const outDir = "bench/out"

var tracePath = filepath.Join(outDir, "trace.json")

func main() {
	workload := flag.String("workload", "", "run one workload (default: all seven)")
	seed := flag.Int64("seed", 1, "seed of the verification payloads and the ASP verification graph")
	seconds := flag.Float64("seconds", runSeconds, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics and writing "+tracePath)
	quick := flag.Bool("quick", false, "smoke run: 4-node shapes, two ops per workload")
	out := flag.String("out", "", "also write the result set to this file")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare base.json new.json")
	selfcheck := flag.Bool("selfcheck", false, "run two full sets of this tree and compare them")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json")
	engineProbe := flag.Bool("engine-probe", false, "internal: child side of des.parallel_ratio")
	flag.Parse()

	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick}
	names := workloadNames()
	if *workload != "" {
		names = []string{*workload}
	}
	switch {
	case *printManifest:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		exitOn(enc.Encode(buildManifest()))
	case *engineProbe:
		exitOn(engineProbeMain(cfg.quick))
	case *compare:
		if flag.NArg() != 2 {
			exitOn(fmt.Errorf("usage: bench -compare base.json new.json"))
		}
		a, err := readSet(flag.Arg(0))
		exitOn(err)
		b, err := readSet(flag.Arg(1))
		exitOn(err)
		os.Exit(report(a, b, false))
	case *selfcheck:
		a, err := runSet(cfg, names)
		exitOn(err)
		b, err := runSet(cfg, names)
		exitOn(err)
		os.Exit(report(a, b, true))
	default:
		run := runSet
		if cfg.trace {
			run = runTraced
		}
		s, err := run(cfg, names)
		exitOn(err)
		if *out != "" {
			exitOn(writeSet(*out, s))
		}
		if !s.print() {
			os.Exit(1)
		}
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

func readSet(path string) (*set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s set
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func writeSet(path string, s *set) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// print writes every metric by name with its unit, then the one-line JSON
// object the driver reads, and reports whether every op was correct. With
// one workload the object is that workload's result; with several, their
// metrics are joined under "<workload>.<metric>".
func (s *set) print() bool {
	kind := "end-to-end metrics, untraced"
	if s.Trace {
		kind = "per-layer metrics, traced (host times carry tracing overhead)"
	}
	fmt.Printf("hierknem bench: %s\n", kind)
	fmt.Printf("  closed loop, one client, seed %d, %g s per workload, %s, host.cores %d\n", s.Seed, s.Seconds, s.Go, s.Cores)
	fmt.Printf("  host.calib_ms %.3f  host.calib_spread %.3f", s.CalibMS, s.CalibSpread)
	if s.Noisy {
		fmt.Printf("  NOISY: the host was not quiet; host times (s, ms, ns) in this set are not comparable")
	}
	fmt.Printf("\n  times marked sim_us are simulated by the model, which is validated only against this repository's earlier values\n\n")

	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range s.Order {
		r := s.Workloads[name]
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		fmt.Printf("%s: correct %v, attempted %d, failed %d\n", name, r.Correct, r.Attempted, r.Failed)
		for _, k := range sortedKeys(r.Metrics) {
			v := r.Metrics[k]
			fmt.Printf("  %-28s %16.6g %s\n", k, v.Value, v.Unit)
			key := k
			if len(s.Order) > 1 {
				key = name + "." + k
			}
			final.Metrics[key] = metric{Value: v.Value, Unit: v.Unit}
		}
		for _, k := range sortedKeys(r.Info) {
			fmt.Printf("  %-28s %16.6g %s (unguarded)\n", k, r.Info[k].Value, r.Info[k].Unit)
		}
		fmt.Println()
	}
	line, err := json.Marshal(final)
	exitOn(err)
	fmt.Printf("%s\n", line)
	return final.Correct
}
