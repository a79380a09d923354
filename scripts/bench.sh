#!/usr/bin/env bash
# bench.sh — the reproducible performance harness.
#
# Three suites, each distilled to a checked-in JSON document via cmd/benchjson:
#
#   1. BenchmarkDES* (DES hot-path overhaul): event throughput and allocation
#      rate of the engine + matching layer, compared against the checked-in
#      pre-overhaul baseline (results/BASELINE_des.json, recorded from the
#      pre-overhaul tree pinned to the ModeGlobal fabric). Acceptance bar:
#      >=1.5x events/sec and >=2x fewer allocs/op on the Fig3a sweep, and
#      events/op identical to the baseline on every benchmark (determinism
#      canary). The DES suite runs FIRST, while the process and allocator
#      are quiet, because it measures wall-clock throughput.
#
#   2. BenchmarkFabric* (fabric allocator): Fig3a 768-rank broadcast sweep,
#      Fig5 768-rank Allgather, Table II ASP under both allocator modes;
#      incremental mode must perform >=2x fewer resource visits than global
#      mode on the Fig3a sweep.
#
#   3. Sweep harness (internal/sweep): `hierbench -exp all` timed serial
#      (-parallel 1) and parallel; the two stdouts must match byte for byte
#      (always enforced — parallelism must be invisible in the output), and
#      on hosts with >=4 cores the parallel run must be >=3x faster.
#
# Environment knobs:
#   DES_COUNT        -count for the DES suite (default 3; the gate compares
#                    best-of-count)
#   MIN_SPEEDUP      enforced events/sec ratio vs. baseline (default 1.5)
#   MIN_ALLOC_RATIO  enforced allocs/op shrink factor (default 2)
#   BENCHTIME        fabric suite -benchtime (default 1x: one deterministic
#                    simulated run per configuration)
#   MIN_VISIT_RATIO  fabric enforced visit ratio (default 2)
#   SWEEP_ARGS       hierbench arguments for the sweep suite (default: the
#                    full evaluation at CI scale, see below)
#   SWEEP_WORKERS    -parallel for the parallel sweep run (default: nproc)
#   MIN_SWEEP_SPEEDUP  enforced sweep speedup at >=4 cores (default 3)
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p results

# Pin GC pacing for the wall-clock-sensitive suites: the pooled engine's
# live heap is small enough that the default pacer's minimum heap goal
# dominates the hot loop (see bench_des_test.go's benchGOGC). benchDES also
# pins in-process, so this export mainly keeps the recorded environment
# explicit and covers the child processes uniformly.
export GOGC="${GOGC:-400}"

echo "==> go test -bench BenchmarkDES (-count ${DES_COUNT:-3}, GOGC=$GOGC)"
go test -run '^$' -bench 'BenchmarkDES' -count "${DES_COUNT:-3}" -benchmem . |
    tee results/bench_des.txt

echo "==> benchjson -schema des -> results/BENCH_des.json"
go run ./cmd/benchjson \
    -schema des \
    -baseline results/BASELINE_des.json \
    -min-speedup "${MIN_SPEEDUP:-1.5}" \
    -min-alloc-ratio "${MIN_ALLOC_RATIO:-2}" \
    -enforce 'Fig3a' \
    -o results/BENCH_des.json < results/bench_des.txt

echo "==> go test -bench BenchmarkFabric (-benchtime ${BENCHTIME:-1x})"
go test -run '^$' -bench 'BenchmarkFabric' -benchtime "${BENCHTIME:-1x}" -benchmem . |
    tee results/bench_fabric.txt

echo "==> benchjson -> results/BENCH_fabric.json"
go run ./cmd/benchjson \
    -min-visit-ratio "${MIN_VISIT_RATIO:-2}" \
    -enforce 'Fig3a' \
    -o results/BENCH_fabric.json < results/bench_fabric.txt

SWEEP_ARGS=${SWEEP_ARGS:-"-exp all -nodes 4 -iters 2 -asp-n 256 -asp-nodes 4"}
SWEEP_WORKERS=${SWEEP_WORKERS:-$(nproc)}
echo "==> sweep harness: hierbench $SWEEP_ARGS, serial vs -parallel $SWEEP_WORKERS"
tmp=$(mktemp -d "${TMPDIR:-/tmp}/hierknem-sweep.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/hierbench" ./cmd/hierbench

t0=$(date +%s.%N)
# shellcheck disable=SC2086  # SWEEP_ARGS is a word list by design
"$tmp/hierbench" $SWEEP_ARGS -parallel 1 > "$tmp/serial.txt"
t1=$(date +%s.%N)
"$tmp/hierbench" $SWEEP_ARGS -parallel "$SWEEP_WORKERS" > "$tmp/parallel.txt"
t2=$(date +%s.%N)

identical=""
if cmp -s "$tmp/serial.txt" "$tmp/parallel.txt"; then
    identical="-identical"
fi

echo "==> benchjson -schema sweep -> results/BENCH_sweep.json"
go run ./cmd/benchjson \
    -schema sweep \
    -sweep-command "hierbench $SWEEP_ARGS" \
    -serial-sec "$(awk "BEGIN{print $t1-$t0}")" \
    -parallel-sec "$(awk "BEGIN{print $t2-$t1}")" \
    -workers "$SWEEP_WORKERS" \
    -min-sweep-speedup "${MIN_SWEEP_SPEEDUP:-3}" \
    $identical \
    -o results/BENCH_sweep.json

echo "bench: wrote results/BENCH_des.json, BENCH_fabric.json and BENCH_sweep.json (criteria passed)"
