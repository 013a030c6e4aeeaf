#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache and temp
# files included, so nothing is written outside the checkout) and runs it
# with the arguments given. Run from the repository root:
#
#   bash bench/run.sh --workload steady-hot --seed 1 --seconds 20 --trace 0
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

# The driver's checkout is not a git repository; the commit is part of the
# host fingerprint only where git can name it.
BENCH_COMMIT=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
if [ "$BENCH_COMMIT" != unknown ] && [ -n "$(git status --porcelain 2>/dev/null)" ]; then
	BENCH_COMMIT="$BENCH_COMMIT+dirty"
fi
export BENCH_COMMIT

go build -C bench -o "$build/vodbench" .
exec "$build/vodbench" "$@"
