#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 40 --trace 0
#
# The binary, the Go build cache, the run ledger and the span files all stay
# under .bench_build/ in the current directory (or under $CARGO_TARGET_DIR
# when it is set), so nothing is read or written outside the checkout. Without
# the repository around perfbench/ the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/perfbench"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOENV=off
export GOFLAGS=

(cd "$here" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" --out "$build/perfbench" "$@"
