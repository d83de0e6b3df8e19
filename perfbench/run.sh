#!/usr/bin/env bash
# Builds the perfbench binary from this checkout and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run from the
# repository root:
#
#   bash perfbench/run.sh --workload kernels --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, traces) stays under
# .bench_build/ in the checkout; no network is touched.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

# The go command's cache, module path and config (where its local
# telemetry counters go) all live under .bench_build.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

go -C "$here" build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" "$@"
