#!/usr/bin/env bash
# Builds sectord, sectorproxy and the perfbench harness from the checkout
# this script is run in, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build artifact, the Go build
# cache and the span files land under .bench_build/, so nothing outside
# the checkout is read or written. Build output goes to stderr; the last
# line on stdout is the run's JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOTOOLCHAIN=local
# The go command reads its telemetry mode from this file, not from the
# environment. In the default "local" mode every go invocation starts a
# detached upload process in its own session that outlives this script.
echo off >"$out/config/go/telemetry/mode"

go build -o "$out/bin/" ./cmd/sectord ./cmd/sectorproxy >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out/perfbench" "$@"
