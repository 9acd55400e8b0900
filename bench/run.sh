#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given (BENCHMARK.json's command). Everything Go writes
# — build cache, temporary files, the binary — stays under .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/boombench" .)
cd "$root"
exec "$build/boombench" "$@"
