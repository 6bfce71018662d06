#!/usr/bin/env bash
# Builds the benchmark and the bcd daemon from this checkout's sources,
# then runs the benchmark with the given arguments. Run from the
# repository root:
#
#   bash benchmark/run.sh --workload rmat-inproc --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and generated graph files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "run.sh: run from the repository root: go.mod, internal/ and benchmark/ are required" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/gocache" "$out/tmp" "$out/work"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
go -C benchmark build -o "$out/mrbc-benchmark" .
go -C benchmark build -o "$out/bcd" mrbc/cmd/bcd

exec "$out/mrbc-benchmark" --bcd "$out/bcd" --workdir "$out/work" "$@"
