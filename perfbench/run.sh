#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it.
#
#   bash perfbench/run.sh --workload fig7-warm-http --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. Everything the build and the run write
# goes under $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/home"
export GOCACHE=$build/gocache GOPATH=$build/gopath HOME=$build/home
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" --build-dir "$build" "$@"
