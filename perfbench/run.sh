#!/usr/bin/env bash
# Builds amosd and the benchmark from the sources of the checkout it is
# run in, then runs one workload:
#
#   bash perfbench/run.sh --workload fig6_point --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds, caches or writes
# stays under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
# The go command otherwise starts a detached telemetry process that
# outlives this script; the setting lives under HOME, so in .bench_build.
go telemetry off
go build -o "$out/amosd" ./cmd/amosd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
