#!/usr/bin/env bash
# Builds and runs the repository benchmark from the repository root:
#
#   bash perfbench/run.sh --workload submit_burst --seed 7 --seconds 15 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# current directory: the Go build cache, the benchmark binary, the schedd
# binary each run builds, journals, and span files. XDG_CONFIG_HOME keeps
# the go command's telemetry counters there too.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/schedd || ! -d internal/serve ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/schedd and internal/serve must be present)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off

(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" "$@"
