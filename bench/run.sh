#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Run from the repository root (the driver's form:
# bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>)
# or from anywhere inside a checkout.
#
# Everything the build writes stays under .bench_build/ in the checkout:
# the Go build cache and the binary.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/cellqos-bench" .)
cd "$root"
exec "$build/cellqos-bench" "$@"
