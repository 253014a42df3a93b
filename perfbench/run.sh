#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Every
# argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload warm-search --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The build cache, the binary and all
# scratch state stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off GOTELEMETRY=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
