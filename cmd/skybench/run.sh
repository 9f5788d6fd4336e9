#!/usr/bin/env bash
# Builds cmd/skybench from the source in this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash cmd/skybench/run.sh -seed 1 -out r.json
#   bash cmd/skybench/run.sh --workload sl-ind-4k --seed 3 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays in
# .bench_build/ at the root. The build never touches the network: the
# benchmark and the library it measures use only the standard library.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -C cmd/skybench -o "$build/skybench" . >&2
exec "$build/skybench" "$@"
