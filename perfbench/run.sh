#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Every build and
# scratch file stays under .bench_build/ at the repository root.
#
#   bash perfbench/run.sh --workload real-dense --seed 1 --seconds 30 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/work" "$@"
