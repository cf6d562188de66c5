#!/usr/bin/env bash
# The one command: builds rtbench from source and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload wire_query --seed 1 --seconds 12 --trace 0
#
# Everything it writes stays in the checkout: build outputs and Go's caches
# under .bench_build/, scratch files and trace.jsonl under bench/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# No network, no user configuration, no C toolchain: the module has no
# dependencies beyond the standard library.
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$build/rtbench" ./rtbench)
exec "$build/rtbench" --out "$here/out" "$@"
