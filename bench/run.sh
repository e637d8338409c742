#!/bin/bash
# The command of BENCHMARK.json: build and run the benchmark with
# everything the Go toolchain writes (build cache, temporary files) kept
# under bench/out, inside the checkout. Arguments go to the benchmark.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
mkdir -p "$here/out/gocache" "$here/out/tmp"
export GOCACHE="$here/out/gocache" GOTMPDIR="$here/out/tmp"
exec go run -C "$here" . "$@"
