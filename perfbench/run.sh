#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload detail --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the build's temporary files and the binary live
# under .bench_build/, so the benchmark writes nothing outside the
# checkout. Runtime defaults (GOGC, GOMEMLIMIT, GOMAXPROCS, GODEBUG) are
# cleared so that garbage-collection cost stays in the numbers.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root" >&2
	exit 1
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gotmp"
unset GOGC GOMEMLIMIT GOMAXPROCS GODEBUG GOFLAGS GOWORK
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
