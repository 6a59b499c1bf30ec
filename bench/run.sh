#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source with
# every build output (binary, Go build cache, temporary files, the go
# command's own configuration and counters) inside the checkout, then runs it
# from the checkout root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" "$@"
