#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#   bash e2ebench/run.sh --workload read_zipf --seed 1 --seconds 20 --trace 0
# Build cache, binary, store files and spans all stay under .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
# XDG_CONFIG_HOME keeps the go command's own files (telemetry counters,
# go env) inside the checkout as well.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .) >&2
exec "$build/e2ebench" "$@"
