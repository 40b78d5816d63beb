#!/usr/bin/env bash
# Builds cmd/muaa-serve and the benchmark from the current tree, then runs
# the benchmark from the repository root:
#
#   bash perfbench/run.sh --workload arrive-small --seed 1 --seconds 10 --trace 0
#
# Every build artifact, Go cache and scratch file stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go build -buildvcs=false -o "$out/bin/muaa-serve" ./cmd/muaa-serve
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -serve "$out/bin/muaa-serve" "$@"
