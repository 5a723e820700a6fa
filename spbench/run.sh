#!/usr/bin/env bash
# Builds the spbench benchmark from source and runs one workload. Run from
# the repository root:
#
#   bash spbench/run.sh --workload als-kernel --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, GOPATH, and the user config
# directory, where the go command keeps its telemetry counters.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
go build -C spbench -o "$out/spbench" .
exec "$out/spbench" -work "$out" "$@"
