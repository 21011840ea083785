#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash clambench/run.sh --workload wan-serial --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go caches, the binary, traces)
# stays under .bench_build/ in the current directory, and the Go toolchain
# is kept offline: it builds only from the files in this checkout.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/home"
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOWORK=off
export GOPROXY=off GOSUMDB=off GOTELEMETRY=off GOFLAGS=-buildvcs=false

go build -C "$root/clambench" -o "$out/clambench" . >&2
exec "$out/clambench" "$@"
