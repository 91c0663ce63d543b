#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# keeping the Go build cache, the go command's own files and the binary
# under .bench_build/, then runs it with the given flags:
#
#   bash bench/run.sh --workload ws-day --seed 42 --seconds 18 --trace 0
#
# Run it from the repository root.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd bench && go build -o "$out/hipster-bench" .)
exec "$out/hipster-bench" "$@"
