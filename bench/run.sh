#!/usr/bin/env bash
# Builds the benchmark from source and runs it. This is BENCHMARK.json's
# command: the driver calls it from the root of a checkout as
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays inside the checkout: the Go
# build cache and the binary under .bench_build/, WAL directories and trace
# files under bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp
# The module has no dependencies, but go still wants these to resolve.
export GOPATH=${GOPATH:-$build/gopath} GOMODCACHE=${GOMODCACHE:-$build/gomodcache}
go build -o "$build/apb-bench" ./bench
exec "$build/apb-bench" "$@"
