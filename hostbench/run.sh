#!/usr/bin/env bash
# Builds the host-time benchmark from the sources of the checkout it is
# run from and executes it with the given arguments, e.g.
#
#   bash hostbench/run.sh --workload chaste32 --seed 0 --seconds 55 --trace 0
#
# Run it from the repository root. Everything the build writes (compiler
# cache, binary) stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$build/hostbench" .)
exec "$build/hostbench" -root "$root" "$@"
