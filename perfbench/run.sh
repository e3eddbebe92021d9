#!/usr/bin/env bash
# Builds the perfbench harness and the mdserve daemon from the checkout
# it is run in, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload sweep-full --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Every build and run artifact stays
# inside the checkout: the Go build cache under $CARGO_TARGET_DIR (or
# .bench_build), reports and scratch data under .bench_out.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/cmd/mdserve" ]]; then
	echo "perfbench: $root is not an mdspec checkout (run from the repository root)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build/perfbench/tmp"

export GOCACHE="$build/perfbench/gocache"
export GOMODCACHE="$build/perfbench/gomod"
export GOTMPDIR="$build/perfbench/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/perfbench/config"

go build -o "$build/perfbench/mdserve" ./cmd/mdserve
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" -root "$root" -bin "$build/perfbench" "$@"
