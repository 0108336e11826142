#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Run
# it from the root of the repository, e.g.
#
#   bash benchmark/run.sh --workload conv-bulk --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (the Go build cache, temporary files and the
# binary) stays under .bench_build/ at the root of the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly

go -C benchmark build -o "$build/spray-benchmark" .
exec "$build/spray-benchmark" "$@"
