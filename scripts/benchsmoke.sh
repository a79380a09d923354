#!/usr/bin/env bash
# benchsmoke.sh — runs bench/ci.sh, again when it fails for one known reason.
#
# bench/ci.sh's traced -quick run profiles two ops of a few milliseconds
# under a 100 Hz CPU profiler, and fails with `CPU profile: no samples` when
# no tick lands inside them — more often the faster the simulator gets. The
# fix (profile until a sample lands) belongs to the bench package, which a
# change outside it may not edit. Until then that exact message, and no
# other failure, earns up to two more attempts.
set -uo pipefail
cd "$(dirname "$0")/.."

log=$(mktemp)
trap 'rm -f "$log"' EXIT
for attempt in 1 2 3; do
  bench/ci.sh 2>&1 | tee "$log"
  status=${PIPESTATUS[0]}
  if [ "$status" -eq 0 ]; then
    echo "benchsmoke: passed on attempt $attempt of 3"
    exit 0
  fi
  if ! grep -qF 'CPU profile: no samples' "$log"; then
    echo "benchsmoke: failed on attempt $attempt of 3 (not the profiler flake, no rerun)" >&2
    exit "$status"
  fi
  echo "benchsmoke: attempt $attempt of 3 hit 'CPU profile: no samples'" >&2
done
exit "$status"
