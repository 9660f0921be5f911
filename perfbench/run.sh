#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout, then runs it.
# Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload detect-full --seed 1 --seconds 30 --trace 0
#
# Every file the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/home/go"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
