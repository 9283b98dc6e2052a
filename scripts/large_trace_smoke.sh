#!/usr/bin/env bash
# large_trace_smoke.sh — streaming-path regression smoke.
#
# Streams a 10^7-reference synthetic trace through ppc-sim under a hard
# memory ceiling (GOMEMLIMIT plus a soft address-space rlimit), proving
# the engine's resident set is bounded and independent of trace length,
# and asserts a refs/sec floor so a streaming-path slowdown fails fast.
# Streams demand-lru over a working set that fits its cache, which
# evicts almost nothing, and fails if its peak RSS passes 64 MB: a
# recency structure that only sheds entries on eviction would grow with
# the trace. Also writes a bundled trace to a columnar file and requires
# the file's streamed run to print the same metrics as the bundled
# trace's materialized run — the byte-identity acceptance criterion,
# exercised from the CLI.
# Finally requires ppc-sweep to reject a streamed sweep with an offline
# algorithm (exit 2, nothing on stdout) before running any cell.
#
# Usage: scripts/large_trace_smoke.sh [refs] [floor-refs-per-sec]
set -euo pipefail

cd "$(dirname "$0")/.."

REFS="${1:-1e7}"
FLOOR="${2:-200000}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== build"
go build -o "$WORK/ppc-sim" ./cmd/ppc-sim
go build -o "$WORK/ppc-traces" ./cmd/ppc-traces
go build -o "$WORK/ppc-sweep" ./cmd/ppc-sweep

echo "== stream $REFS refs under GOMEMLIMIT=256MiB"
# 10^7 materialized refs alone would be ~160 MB before engine state; the
# ceiling proves the streaming path never holds them. The rlimit is a
# backstop (1 GiB address space) in case the Go runtime shrugs off the
# soft limit.
ulimit -v 1048576 2>/dev/null || echo "(no ulimit support; relying on GOMEMLIMIT)"
GOMEMLIMIT=256MiB GOGC=50 "$WORK/ppc-sim" \
    -large "$REFS:65536:zipf:1" -window 1000 -alg forestall -disks 4 \
    | tee "$WORK/large.out"

RPS="$(awk '/refs\/sec/ {print int($3)}' "$WORK/large.out")"
echo "== refs/sec: $RPS (floor: $FLOOR)"
if [ -z "$RPS" ] || [ "$RPS" -lt "$FLOOR" ]; then
    echo "streaming throughput $RPS refs/sec fell below the floor $FLOOR" >&2
    exit 1
fi

echo "== stream $REFS refs through demand-lru with a cache that fits: peak RSS"
"$WORK/ppc-sim" -large "$REFS:1024:zipf:1" -window 1000 -alg demand-lru -cache 2048 -disks 1 \
    >"$WORK/lru.out" &
pid=$!
HWM=0
# VmHWM only grows, so its last reading before exit is the peak up to
# then.
while kill -0 "$pid" 2>/dev/null; do
    kb="$(awk '/^VmHWM:/ {print $2}' "/proc/$pid/status" 2>/dev/null || true)"
    if [ -n "$kb" ]; then HWM="$kb"; fi
    sleep 0.05
done
wait "$pid"
cat "$WORK/lru.out"
echo "== demand-lru peak RSS: $((HWM / 1024)) MB (ceiling: 64 MB)"
if [ "$HWM" -gt $((64 * 1024)) ]; then
    echo "demand-lru peak RSS $HWM kB exceeds 64 MB" >&2
    exit 1
fi

echo "== columnar round-trip: streamed == materialized"
"$WORK/ppc-traces" convert -trace ld -o "$WORK/ld.col"
"$WORK/ppc-traces" inspect "$WORK/ld.col"
"$WORK/ppc-sim" -trace ld -window 500 -alg aggressive -disks 2 \
    | grep -v 'refs/sec' > "$WORK/mat.out"
"$WORK/ppc-sim" -trace-file "$WORK/ld.col" -window 500 -alg aggressive -disks 2 \
    | grep -v 'refs/sec' > "$WORK/str.out"
diff -u "$WORK/mat.out" "$WORK/str.out"

echo "== sweep with an offline algorithm: rejected before any cell runs"
set +e
"$WORK/ppc-sweep" -large 2e5:4096:zipf:1 -window 64 -algs demand,reverse-aggressive \
    >"$WORK/sweep.out" 2>"$WORK/sweep.err"
code=$?
set -e
cat "$WORK/sweep.err"
if [ "$code" -ne 2 ] || [ -s "$WORK/sweep.out" ]; then
    echo "ppc-sweep exited $code with $(wc -c <"$WORK/sweep.out") bytes on stdout; want exit 2 and no output" >&2
    exit 1
fi

echo "== large-trace smoke OK"
