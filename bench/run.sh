#!/usr/bin/env bash
# Builds the benchmark and the icid daemon from source into .bench_build
# at the repository root, then runs one workload:
#
#   bash bench/run.sh --workload filter-image --seed 1 --seconds 25 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files,
# telemetry) stays under .bench_build, so the run touches nothing outside
# the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/icid" ]; then
	echo "bench/run.sh: run from the repository root (go.mod and cmd/icid not found in $root)" >&2
	exit 2
fi

out="$root/.bench_build"
export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/go-mod"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
mkdir -p "$GOTMPDIR"

go build -o "$out/icid" ./cmd/icid
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" -icid "$out/icid" -workdir "$out" "$@"
