#!/usr/bin/env bash
# Builds bhive-bench from source and runs it with the given flags, from the
# repository root:
#
#   bash cmd/bhive-bench/run.sh -scale 0.3 --workload table5 --seed 7 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build; results, span files and temporary files go under .bench_out.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/cmd/bhive-bench" && go build -o "$build/bhive-bench" .)
exec "$build/bhive-bench" "$@"
