#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments. Everything the build writes (Go build cache, binary,
# span files) stays under .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload bnp-sweep --seed 1998 --seconds 20 --trace 0
#   bash perfbench/run.sh compare runs-before/ runs-after/
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/go/cache" "$out/go/tmp" "$out/go/path" "$out/go/config"
export GOCACHE="$out/go/cache" GOTMPDIR="$out/go/tmp" GOPATH="$out/go/path" XDG_CONFIG_HOME="$out/go/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go -C "$root/perfbench" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
