#!/usr/bin/env bash
# Runs the serving benchmark from the repository root:
#
#   bash servebench/run.sh --workload pair --seed 1 --seconds 20 --trace 0
#
# Go's build cache and every build output stay under .bench_build in the
# checkout; the toolchain is the local one and modules are never fetched
# (the benchmark and the program use the standard library only).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/servebench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/go-cache"
export GOMODCACHE="$root/.bench_build/go-mod"
export XDG_CONFIG_HOME="$root/.bench_build/config" # go's telemetry counters
export GOTMPDIR="$out"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
