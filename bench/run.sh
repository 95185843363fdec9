#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run it from the root of a checkout, for example
#
#   bash bench/run.sh --workload lockd-closed --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache, temporary files and the runs' own files
# all stay under .bench_build/ in the checkout, and nothing is fetched
# from the network, so the first run compiles the standard library too.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/bench/go.mod" ]; then
	echo "run.sh: run from the root of the checkout (no bench/go.mod here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
