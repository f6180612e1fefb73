#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given: the command BENCHMARK.json names. Everything the build
# writes (binary, compiler cache) stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench: no go.mod beside bench/: this is not a checkout of the repository" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
export GOPATH="${GOPATH:-$build/gopath}"
go build -buildvcs=false -o "$build/bench" ./bench
exec "$build/bench" "$@"
