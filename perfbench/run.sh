#!/usr/bin/env bash
# Builds seqpointd and perfbench from this checkout, then runs
# one benchmark measurement. Arguments pass through to perfbench:
#
#   bash perfbench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the toolchain's config and telemetry
# directory, snapshots, span files and results.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
# Telemetry off: in its default mode the go command forks a telemetry
# sidecar that outlives the build, so a run would leave a process behind.
mkdir -p "$out/config/go/telemetry"
printf 'off\n' >"$out/config/go/telemetry/mode"
go build -o "$out/bin/seqpointd" ./cmd/seqpointd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
