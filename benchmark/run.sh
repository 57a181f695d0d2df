#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Everything the
# build leaves behind — the binary and Go's build cache — stays under
# .bench_build/ in the checkout, which .gitignore names.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C "$here" -o "$build/cbes-benchmark" .
exec "$build/cbes-benchmark" "$@"
