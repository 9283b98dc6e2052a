#!/usr/bin/env bash
# Builds perfbench from the surrounding checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-online --seed 0 --seconds 15 --trace 0
#
# Everything the build and the run write (the Go build cache, the go
# command's telemetry counters, the binary, temporary trace files) goes
# under .bench_build/ at the repository root.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
