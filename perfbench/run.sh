#!/bin/sh
# Builds the benchmark from source inside the checkout, then runs it.
# Run from the repository root:
#
#	sh perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the Go toolchain writes (build cache, module cache, temporary
# work directories, its config and telemetry) stays under .bench_build in
# the checkout.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOENV=off GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
