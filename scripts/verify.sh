#!/usr/bin/env bash
# verify.sh — the repository's full verification gate, identical to CI.
#
#   build     every package compiles
#   gofmt     `gofmt -l .` lists nothing
#   vet       the stock Go analyzers
#   hierlint  the simulator-invariant analyzers (cmd/hierlint):
#             errcheck, runisolation. One run, wall time printed; also
#             gates that both analyzers are registered. (Request hygiene is
#             checked by World.Run in every test that runs a world.)
#   test      the full suite without the race detector (internal/core's
#             per-call malloc guard, hierbench's -exp all golden and the
#             seeded overlapping-copy and stall fixtures included), except
#             ./bench, whose tests benchsmoke runs
#   race      the race detector, only over code that starts goroutines:
#             the sweep pool, the coroutine pool, hierbench's sweeps and
#             bench's RSS poller (-short), and the root isolation tests
#   san       every package under internal/, and the root's conformance
#             and isolation suites, under HIERSAN=1 (the hiersan dynamic
#             sanitizer: virtual-time buffer conflicts between ranks,
#             ordered by the sync edges mpi records where it completes a
#             message or releases parked ranks; des knows no sanitizer)
#   fuzz      10s FuzzMatch smoke over the p2p matching machinery
#   benchsmoke  the repository benchmark's own gate (bench/ci.sh, called as
#             it stands): vet, hierlint and tests of ./bench, then a -quick
#             run of both modes whose output is checked against
#             BENCHMARK.json. Its wall time prints next to hierlint's. Run
#             up to three times, but only when its output says `CPU profile:
#             no samples` (two millisecond ops can finish between two ticks
#             of the 100 Hz profiler); any other failure fails at once.
#
# The last line printed is the whole script's wall time.
#
# Run from anywhere; it anchors itself at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt: these files need formatting:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> hierlint ./..."
go build -o /tmp/hierlint.verify ./cmd/hierlint
if [ "$(/tmp/hierlint.verify -list | wc -l)" -ne 2 ]; then
  echo "hierlint: expected 2 registered analyzers" >&2
  /tmp/hierlint.verify -list >&2
  exit 1
fi
t0=$(date +%s%N)
/tmp/hierlint.verify ./...
t1=$(date +%s%N)
echo "hierlint timing: $(( (t1 - t0) / 1000000 ))ms"

echo "==> go test ./... (without ./bench)"
go test $(go list ./... | grep -vx 'hierknem/bench')

echo "==> go test -race (packages that start goroutines)"
go test -race -short ./internal/sweep ./internal/des ./cmd/hierbench ./bench
go test -race -short . -run 'Isolation|Parallel'

echo "==> san (HIERSAN=1: internal/..., root conformance and isolation)"
HIERSAN=1 go test ./internal/...
HIERSAN=1 go test . -run 'Conformance|Isolation'

echo "==> fuzz smoke (FuzzMatch, 10s)"
go test ./internal/mpi -run '^$' -fuzz '^FuzzMatch$' -fuzztime 10s

echo "==> benchsmoke (bench/ci.sh)"
t3=$(date +%s%N)
scripts/benchsmoke.sh
t4=$(date +%s%N)
echo "gate timing: hierlint $(( (t1 - t0) / 1000000 ))ms; benchsmoke $(( (t4 - t3) / 1000000 ))ms"

echo "verify: all gates passed in ${SECONDS}s"
