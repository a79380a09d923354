#!/usr/bin/env bash
# verify.sh — the repository's full verification gate, identical to CI.
#
#   build     every package compiles
#   gofmt     `gofmt -l .` lists nothing
#   vet       the stock Go analyzers
#   hierlint  the simulator-invariant analyzers (cmd/hierlint):
#             determinism, requesthygiene, errcheck, bufferescape,
#             runisolation, poolreturn, tagspace. One run, wall time
#             printed; also gates that all seven analyzers are registered.
#   test      the full suite under the race detector
#   alloc     internal/core's per-call malloc guard, which skips itself
#             under -race (there coll.Like stops inlining and phantom
#             scratch escapes), run once more without it
#   san       the conformance/isolation suites under HIERSAN=1 (the hiersan
#             dynamic sanitizer) plus the seeded fault fixtures
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
if [ "$(/tmp/hierlint.verify -list | wc -l)" -ne 7 ]; then
  echo "hierlint: expected 7 registered analyzers" >&2
  /tmp/hierlint.verify -list >&2
  exit 1
fi
t0=$(date +%s%N)
/tmp/hierlint.verify ./...
t1=$(date +%s%N)
echo "hierlint timing: $(( (t1 - t0) / 1000000 ))ms"

echo "==> go test -race ./..."
go test -race ./...

echo "==> allocation guard (no race detector)"
go test ./internal/core -run '^TestCollectiveMallocsPerRankCall$'

echo "==> san (HIERSAN=1 conformance + seeded faults)"
HIERSAN=1 go test ./... -run 'Conformance|Isolation'
go test ./internal/des ./internal/mpi ./internal/fabric -run 'Sanitizer|StallAutopsy|MaxTimeAbort'

echo "==> fuzz smoke (FuzzMatch, 10s)"
go test ./internal/mpi -run '^$' -fuzz '^FuzzMatch$' -fuzztime 10s

echo "==> benchsmoke (bench/ci.sh)"
t3=$(date +%s%N)
scripts/benchsmoke.sh
t4=$(date +%s%N)
echo "gate timing: hierlint $(( (t1 - t0) / 1000000 ))ms; benchsmoke $(( (t4 - t3) / 1000000 ))ms"

echo "verify: all gates passed in ${SECONDS}s"
