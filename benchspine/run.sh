#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the Go toolchain writes — build cache, temporary files, the
# two binaries — stays in .bench_build/ at the repository root, so a run
# leaves nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local
(cd "$root/benchspine" && go build -o "$build/benchspine" .)
cd "$root"
exec "$build/benchspine" "$@"
