#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash bench/run.sh --workload latent-serve --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temp files, the pipeline cache, the server
# binary and the results. No network is used (GOPROXY=off, local toolchain).
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C bench build -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
