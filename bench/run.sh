#!/usr/bin/env bash
# The command BENCHMARK.json names. It runs from the root of a checkout,
# builds the benchmark from source into .bench_build/ there (the Go build
# cache too, so nothing is written outside the checkout) and runs it with
# the arguments it was given.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build"
(
	cd "$root/bench"
	GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config \
		GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/concilium-bench" .
) >&2
exec "$build/concilium-bench" "$@"
