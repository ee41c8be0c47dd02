#!/usr/bin/env bash
# Builds the CrossBroker benchmark from this checkout's sources and runs
# it with the arguments given, from the root of the checkout:
#
#   bash perfbench/run.sh --workload replay-day --seed 1 --seconds 35 --trace 0
#
# The Go build cache and the binary live under .bench_build/ at the
# checkout root, so the benchmark reads and writes nothing outside the
# checkout. Without the repository's sources next to perfbench/ the
# build fails and the script exits non-zero before printing a result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOPATH="$out/gopath"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
