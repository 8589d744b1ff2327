#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments (see bench/README.md).  Run it from
# the repository root; every build artifact, cache and temporary file
# stays under .bench_build/ there, and no module is fetched.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$build/coefficientbench" .)
exec "$build/coefficientbench" "$@"
