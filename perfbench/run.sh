#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments:
#
#   bash perfbench/run.sh --workload interactive-routed --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artefact (the Go build cache,
# temporary files, the binary) stays under .bench_build/ in the current
# directory, so the run touches nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
# The go command keeps its settings and local telemetry under the user
# config directory; point it inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
