#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it:
#   bash e2ebench/run.sh --workload adapt-rank --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build outputs, the Go build cache and
# the rig's data directories all stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
