#!/usr/bin/env bash
# verify.sh — the repository's full verification gate, identical to CI.
#
#   build     every package compiles
#   vet       the stock Go analyzers
#   hierlint  the simulator-invariant analyzers (cmd/hierlint):
#             determinism, requesthygiene, errcheck, bufferescape,
#             runisolation, poolreturn, tagspace, bracket (balanced
#             EnterNodePhase/ExitNodePhase collective brackets), plus the
#             hierflow interprocedural PDES preconditions: vtmono, confine,
#             atomicfield, phasesafe (whole-program node-phase confinement
#             proof). Runs twice (cold-ish, then warm) with -manifest so a
#             clean tree emits the phasesafe guard-elision manifest, and
#             prints both timings so result-cache effectiveness stays
#             visible; also gates that all twelve analyzers are registered.
#   elide     the guard-elision soundness gate: TestGuardElision* re-runs
#             the bracketed-personality log comparisons with
#             HIERKNEM_GUARDS=elide against the manifest hierlint just
#             emitted, plus the fail-closed refusal matrix
#   test      the full suite under the race detector
#   pdes      the root conformance/equivalence/isolation suites rerun with
#             HIERKNEM_ENGINE=parallel (every world on the conservative
#             parallel engine) — the serial run just passed under `test`,
#             so any divergence the hex-exact log comparisons catch is the
#             parallel engine's. Runs under a GOMAXPROCS matrix {1, 4}: 1
#             pins the cooperative single-core interleaving (workers share
#             one core, phases still execute), 4 gives phase workers real
#             cores — the committed logs must not notice either way
#   san       the conformance/isolation suites under HIERSAN=1 (the hiersan
#             dynamic sanitizer) plus the seeded fault fixtures
#   fuzz      10s FuzzMatch smoke over the p2p matching machinery, then 10s
#             FuzzPDESDiff differential smoke (serial vs parallel engine)
#   benchsmoke  the repository benchmark's own gate (bench/ci.sh, called as
#             it stands): vet, hierlint and tests of ./bench, then a -quick
#             run of both modes whose output is checked against
#             BENCHMARK.json. Its wall time prints next to hierlint's. Run
#             up to three times, but only when its output says `CPU profile:
#             no samples` (two millisecond ops can finish between two ticks
#             of the 100 Hz profiler); any other failure fails at once.
#   bench     the perf harness (scripts/bench.sh): DES hot-path suite vs
#             checked-in baseline, fabric-allocator >=2x resource-visit
#             criterion, and the parallel sweep gate (byte-identical
#             serial/parallel stdout; >=3x speedup on >=4-core hosts)
#
# Run from anywhere; it anchors itself at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> hierlint ./..."
go build -o /tmp/hierlint.verify ./cmd/hierlint
if [ "$(/tmp/hierlint.verify -list | wc -l)" -ne 12 ]; then
  echo "hierlint: expected 12 registered analyzers" >&2
  /tmp/hierlint.verify -list >&2
  exit 1
fi
t0=$(date +%s%N)
/tmp/hierlint.verify -manifest ./...
t1=$(date +%s%N)
/tmp/hierlint.verify -manifest ./...
t2=$(date +%s%N)
echo "hierlint timing: first run $(( (t1 - t0) / 1000000 ))ms, warm-cache run $(( (t2 - t1) / 1000000 ))ms"

echo "==> go test -race ./..."
go test -race ./...

echo "==> elide (guard elision: hex-identity + fail-closed refusals)"
go test . -count=1 -run 'TestGuardElision|TestGuardElideRefusals'

echo "==> pdes (HIERKNEM_ENGINE=parallel conformance + equivalence + isolation, GOMAXPROCS matrix)"
for procs in 1 4; do
  echo "    GOMAXPROCS=$procs"
  HIERKNEM_ENGINE=parallel GOMAXPROCS=$procs go test . -count=1 \
    -run 'Conformance|EngineMode|Isolation|ParallelRuns|WorldReset|NodePhase'
done

echo "==> san (HIERSAN=1 conformance + seeded faults)"
HIERSAN=1 go test ./... -run 'Conformance|Isolation'
HIERSAN=1 HIERKNEM_ENGINE=parallel go test . -run 'Conformance|EngineMode'
go test ./internal/des ./internal/mpi -run 'Sanitizer|StallAutopsy|MaxTimeAbort'

echo "==> fuzz smoke (FuzzMatch, 10s; FuzzPDESDiff, 10s)"
go test ./internal/mpi -run '^$' -fuzz '^FuzzMatch$' -fuzztime 10s
go test . -run '^$' -fuzz '^FuzzPDESDiff$' -fuzztime 10s

echo "==> benchsmoke (bench/ci.sh)"
t3=$(date +%s%N)
scripts/benchsmoke.sh
t4=$(date +%s%N)
echo "gate timing: hierlint first run $(( (t1 - t0) / 1000000 ))ms, warm-cache run $(( (t2 - t1) / 1000000 ))ms; benchsmoke $(( (t4 - t3) / 1000000 ))ms"

echo "==> bench (DES hot path + fabric allocator + parallel sweep)"
scripts/bench.sh

echo "verify: all gates passed"
