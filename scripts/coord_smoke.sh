#!/usr/bin/env bash
# coord_smoke.sh — end-to-end smoke test of the sweep cluster.
#
# Brings up two ppc-serve workers and a ppc-coord coordinator, runs the
# same `ppc-sweep` command line locally and with `-coord` (cluster), and
# requires the CSVs to be byte-identical — the determinism claim the
# whole sharded-cache design rests on. Then resubmits the grid and
# requires the coordinator to serve every cell from its persisted store
# with zero recomputation, checked against /v1/statsz counters. A grid
# with one bad cell past the first must draw a 400 envelope from the
# coordinator without reaching either worker.
#
# Usage: scripts/coord_smoke.sh [port-base]   (default 18200)
set -euo pipefail

cd "$(dirname "$0")/.."

BASE="${1:-18200}"
W1_PORT=$((BASE + 1))
W2_PORT=$((BASE + 2))
COORD_PORT=$((BASE + 3))
WORK="$(mktemp -d)"
GRID=(-traces synth -algs demand,aggressive -disks 1,2 -caches 500,1000)
COORD=(-coord "http://127.0.0.1:$COORD_PORT")

PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build"
go build -o "$WORK/ppc-serve" ./cmd/ppc-serve
go build -o "$WORK/ppc-coord" ./cmd/ppc-coord
go build -o "$WORK/ppc-sweep" ./cmd/ppc-sweep

echo "== start fleet (workers :$W1_PORT :$W2_PORT, coordinator :$COORD_PORT)"
"$WORK/ppc-serve" -addr "127.0.0.1:$W1_PORT" 2>"$WORK/w1.log" &
PIDS+=($!)
"$WORK/ppc-serve" -addr "127.0.0.1:$W2_PORT" 2>"$WORK/w2.log" &
PIDS+=($!)
"$WORK/ppc-coord" -addr "127.0.0.1:$COORD_PORT" \
    -backends "http://127.0.0.1:$W1_PORT,http://127.0.0.1:$W2_PORT" \
    -store "$WORK/store" 2>"$WORK/coord.log" &
PIDS+=($!)

echo "== run the grid through the cluster (ppc-sweep -coord)"
"$WORK/ppc-sweep" "${GRID[@]}" -o "$WORK/cluster.csv" "${COORD[@]}" -retry-for 10s

echo "== run the same grid locally (ppc-sweep)"
"$WORK/ppc-sweep" "${GRID[@]}" -o "$WORK/local.csv"

echo "== diff cluster vs local"
if ! diff "$WORK/cluster.csv" "$WORK/local.csv"; then
    echo "FAIL: cluster results are not byte-identical to a local sweep" >&2
    exit 1
fi
echo "byte-identical"

echo "== resubmit: must replay from the persisted store"
"$WORK/ppc-sweep" "${GRID[@]}" -o "$WORK/replay.csv" "${COORD[@]}" 2>"$WORK/replay.log"
cat "$WORK/replay.log"
if ! diff "$WORK/replay.csv" "$WORK/local.csv"; then
    echo "FAIL: store replay differs from the local sweep" >&2
    exit 1
fi
if ! grep -q '8 from store' "$WORK/replay.log"; then
    echo "FAIL: resubmission was not served from the store" >&2
    exit 1
fi

echo "== verify zero recomputation via /v1/statsz"
stats="$(curl -sf "http://127.0.0.1:$COORD_PORT/v1/statsz")"
echo "$stats" | python3 -c '
import json, sys
st = json.load(sys.stdin)
total = 8
assert st["jobs_from_store"] == 1, st
assert st["cells_from_store"] == total, st
assert st["cells_done"] == total, st          # first job only
assert st["cells_total"] == 2 * total, st     # both submissions counted
assert st["cells_failed"] == 0, st
print("store replay confirmed: %d cells, %d recomputed" % (total, st["cells_done"] - total))
'

echo "== bad later cell: 400 at the job boundary, no worker touched"
worker_requests() {
    for port in "$W1_PORT" "$W2_PORT"; do
        curl -sf "http://127.0.0.1:$port/v1/statsz" |
            python3 -c 'import json, sys; print(json.load(sys.stdin)["requests"])'
    done | paste -sd, -
}
before="$(worker_requests)"
status="$(curl -s -o "$WORK/bad.json" -w '%{http_code}' \
    "http://127.0.0.1:$COORD_PORT/v1/jobs" \
    -d '{"trace_spec":{"refs":1000,"blocks":64},"algorithm":"demand","windows":[32,5000]}')"
cat "$WORK/bad.json"
if [ "$status" != 400 ]; then
    echo "FAIL: grid with a bad second cell got status $status, want 400" >&2
    exit 1
fi
python3 -c '
import json, sys
env = json.load(open(sys.argv[1]))
assert env["error"]["code"] == "invalid_request", env
' "$WORK/bad.json"
after="$(worker_requests)"
if [ "$before" != "$after" ]; then
    echo "FAIL: worker request counts moved ($before -> $after) for a rejected job" >&2
    exit 1
fi
echo "rejected at the boundary; worker requests unchanged ($after)"

echo "== streaming leg: 10^7-ref generator sweep sharded across the fleet"
LARGE="1e7:65536:zipf:1"
STREAMGRID=(-large "$LARGE" -algs aggressive,forestall -disks 2 -window 4096)
"$WORK/ppc-sweep" "${STREAMGRID[@]}" -o "$WORK/stream-cluster.csv" "${COORD[@]}" 2>"$WORK/stream.log"
cat "$WORK/stream.log"

echo "== run the same sweep locally (ppc-sweep -large)"
"$WORK/ppc-sweep" "${STREAMGRID[@]}" -o "$WORK/stream-local.csv"

echo "== diff streamed cluster vs local streamed sweep"
if ! diff "$WORK/stream-cluster.csv" "$WORK/stream-local.csv"; then
    echo "FAIL: streamed cluster results are not byte-identical to a local -large sweep" >&2
    exit 1
fi
echo "byte-identical"

echo "== streaming throughput floor via worker /v1/statsz"
for port in "$W1_PORT" "$W2_PORT"; do
    curl -sf "http://127.0.0.1:$port/v1/statsz"
    echo
done | python3 -c '
import json, sys
floor = 50_000  # refs/sec; ~100x below typical, catches accidental materialization or quadratic regressions
stats = [json.loads(line) for line in sys.stdin if line.strip()]
streamed = sum(st["streamed_runs"] for st in stats)
assert streamed >= 2, stats  # both cells streamed (one per worker on an even shard, but >=2 total regardless)
best = max(st["last_refs_per_sec"] for st in stats)
assert best >= floor, "streamed throughput %.0f refs/sec below floor %d" % (best, floor)
peak = max(st["peak_inuse_bytes"] for st in stats)
assert 0 < peak < 512 << 20, "peak in-use %d bytes implausible for a streamed run" % peak
print("streamed %d cells, best %.0f refs/sec, peak in-use %.1f MiB" % (streamed, best, peak / 2**20))
'

echo "== resubmit the streamed sweep: must replay from the persisted store"
"$WORK/ppc-sweep" "${STREAMGRID[@]}" -o "$WORK/stream-replay.csv" "${COORD[@]}" 2>"$WORK/stream-replay.log"
cat "$WORK/stream-replay.log"
if ! diff "$WORK/stream-replay.csv" "$WORK/stream-local.csv"; then
    echo "FAIL: streamed store replay differs from the local sweep" >&2
    exit 1
fi
if ! grep -q '2 from store' "$WORK/stream-replay.log"; then
    echo "FAIL: streamed resubmission was not served from the store" >&2
    exit 1
fi

echo "== coordinator log"
cat "$WORK/coord.log"
echo "PASS"
