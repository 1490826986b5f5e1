#!/usr/bin/env bash
# Builds lttad and the benchmark from this checkout into .bench_build/
# and runs the benchmark with the given arguments, for example
#
#   bash bench/run.sh --workload warm_checks --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, module cache, its own
# settings) stays under .bench_build/, so nothing outside the checkout
# changes. Build output goes to stderr; the benchmark's report, ending in
# its one-line JSON result, is the only standard output.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/lttad ]; then
	echo "bench/run.sh: no lttad sources (go.mod, cmd/lttad) in $root" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export GOMODCACHE="$out/go-path/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off
export PATH="$PATH:/usr/local/go/bin"

# With telemetry in its default "local" mode, the go command forks a
# detached sidecar process that outlives the build; the mode file under
# the fresh XDG_CONFIG_HOME turns it off, so the go command starts none.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/lttad" ./cmd/lttad >&2
(cd bench && go build -o "$out/bin/bench" .) >&2
exec "$out/bin/bench" "$@"
