#!/usr/bin/env bash
# Gate for the benchmark package: vet, hierlint, unit tests, a -quick smoke of
# both modes and a schema check of what they print. Run from anywhere inside
# the repository. scripts/verify.sh does not call it yet.
set -euo pipefail
cd "$(dirname "$0")/.."

go vet ./bench/...
go run ./cmd/hierlint ./bench/...
go test ./bench/...

check='
import json, re, sys
manifest = json.load(open("BENCHMARK.json"))
section, lines = sys.argv[1], sys.stdin.read().strip().splitlines()
res = json.loads(lines[-1])
assert sorted(res) == ["attempted", "correct", "failed", "metrics"], sorted(res)
assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, res
want = {w["name"] + "." + m["name"]: m["unit"] for w in manifest["workloads"] for m in manifest[section]}
got = {k: v["unit"] for k, v in res["metrics"].items()}
assert got == want, sorted(set(got) ^ set(want))
for k, v in res["metrics"].items():
    assert sorted(v) == ["unit", "value"] and isinstance(v["value"], (int, float)), (k, v)
    assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", k), k
print("bench ci: %s ok, %d metrics" % (section, len(got)))
'
go run ./bench -quick | python3 -c "$check" end_to_end
go run ./bench -quick -trace 1 | python3 -c "$check" per_layer
