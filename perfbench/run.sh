#!/usr/bin/env bash
# Builds the benchmark (and with it flowsched) from source, then runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it writes stays under .bench_build/ in the checkout: the Go
# build cache, the binary, the per-round WAL directories and the run
# records (.bench_build/runs/). It fails before printing a result when
# flowsched's sources are not beside it.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -work "$out" "$@"
