#!/usr/bin/env bash
# Builds bbd and the benchmark from source, then runs one benchmark
# invocation. Run from the repository root:
#
#   bash bbdbench/run.sh --workload cold_compile --seed 1 --seconds 10 --trace 0
#
# The build cache, the binaries and every file a run writes stay under
# .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
# A go command with telemetry on forks a detached sidecar that outlives
# it; turning telemetry off in the private config dir stops that.
go telemetry off
go build -o "$out/bbd" ./cmd/bbd
(cd bbdbench && go build -o "$out/bbdbench" .)
exec "$out/bbdbench" -bbd "$out/bbd" "$@"
