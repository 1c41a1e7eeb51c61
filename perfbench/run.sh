#!/usr/bin/env bash
# Builds the serving-stack benchmark from source and runs it from the
# repository root, e.g.
#
#   bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and every scratch file stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out/work" "$@"
