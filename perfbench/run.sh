#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload exact-agent --seed 1 --seconds 36 --trace 0
#
# Everything it writes stays under .bench_build/ in the checkout: the Go
# build cache, the binary, daemon state (removed after each run) and the
# traced run's span files.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --dir "$build" --root "$root" "$@"
