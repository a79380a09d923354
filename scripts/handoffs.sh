#!/usr/bin/env bash
# handoffs.sh — prints the hand-offs table: per benchmark op, how often the
# engine switched into a rank, the heap pushes and the events
# (internal/des's TestHandoffsPerOp, about 2 s), one "handoffs:" line per
# workload. verify.sh and CI print it beside scripts/loc.sh's line; the
# bounds the test checks fail the test stage, never this script.
cd "$(dirname "$0")/.."
go test -count=1 -run '^TestHandoffsPerOp$' -v ./internal/des |
  sed -n 's/^ *handoff_test\.go:[0-9]*: /handoffs: /p'
