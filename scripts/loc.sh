#!/usr/bin/env bash
# loc.sh — prints one line: the non-test Go line count of each simulator
# package under internal/ and their total, the size ROADMAP aim 2 tracks.
# verify.sh and CI print it; run it from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

line="loc:" total=0
for p in des fabric mpi knem shm hier coll core modules; do
  n=$(cat $(ls internal/$p/*.go | grep -v '_test\.go$') | wc -l)
  line+=" $p=$n" total=$((total + n))
done
echo "$line total=$total"
