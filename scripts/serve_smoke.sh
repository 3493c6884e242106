#!/bin/sh
# serve_smoke.sh — end-to-end durability smoke for rcserve + rcload:
#
#   1. start rcserve with a durability dir and drive it with rcload at two
#      concurrency levels (mixed edit/slack/close traffic), recording
#      per-operation p50/p99 latencies and the final WNS/TNS of every design;
#   2. check the flight recorder: /debug/traces must list traces from the
#      load traffic, every listed trace must resolve (reading the recorder
#      must not evict what it lists), and one must export as Chrome trace
#      events;
#   3. kill -9 the server mid-flight state (no drain, no final snapshot);
#   4. restart it on the same data dir and verify every design recovered —
#      same WNS/TNS to 1e-9, same edit count — timing the recovery lookups.
#
# The combined result lands in BENCH_serve.json at the repo root: one "load"
# suite per concurrency level plus the post-kill "recovery" verification.
# Any lost or drifted design makes the script (and CI) fail.
#
# Usage: scripts/serve_smoke.sh [conc1] [conc2] [ops_per_session]
#        (defaults 4, 16 and 50)
set -eu

cd "$(dirname "$0")/.."
c1="${1:-4}"
c2="${2:-16}"
ops="${3:-50}"

work="$(mktemp -d)"
datadir="$work/data"
port=$((20000 + $$ % 20000))
addr="http://127.0.0.1:$port"
server_pid=""

cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

echo "serve_smoke: building rcserve and rcload"
go build -o "$work/rcserve" ./cmd/rcserve
go build -o "$work/rcload" ./cmd/rcload

start_server() {
    "$work/rcserve" -addr "127.0.0.1:$port" -data-dir "$datadir" \
        -snapshot-every 32 -snapshot-interval 5s >"$work/server.log" 2>&1 &
    server_pid=$!
    "$work/rcload" -mode wait -addr "$addr" -timeout 30s -out "$work/wait.json"
}

echo "serve_smoke: starting rcserve on $addr (data dir $datadir)"
start_server

echo "serve_smoke: load suite at concurrency $c1"
"$work/rcload" -mode load -addr "$addr" -sessions "$c1" -ops "$ops" \
    -seed 1 -out "$work/load_c1.json"
echo "serve_smoke: load suite at concurrency $c2 (state recorded for recovery check)"
"$work/rcload" -mode load -addr "$addr" -sessions "$c2" -ops "$ops" \
    -seed 2 -state "$work/state.json" -out "$work/load_c2.json"

echo "serve_smoke: checking the flight recorder at /debug/traces"
curl -sf "$addr/debug/traces" >"$work/traces.json"
grep -q '"id"' "$work/traces.json" || {
    echo "serve_smoke: /debug/traces recorded no traces after the load suites" >&2
    exit 1
}
ids="$(sed -n 's/.*"id": *"\([0-9a-f]\{32\}\)".*/\1/p' "$work/traces.json")"
n=0
for id in $ids; do
    code="$(curl -s -o /dev/null -w '%{http_code}' "$addr/debug/traces/$id")"
    if [ "$code" != 200 ]; then
        echo "serve_smoke: listed trace $id answered $code" >&2
        exit 1
    fi
    n=$((n + 1))
done
echo "serve_smoke: all $n listed traces resolve"
tid="$(echo "$ids" | head -1)"
curl -sf "$addr/debug/traces/$tid?format=chrome" | grep -q '"traceEvents"' || {
    echo "serve_smoke: trace $tid did not export as Chrome trace events" >&2
    exit 1
}

echo "serve_smoke: kill -9 mid-state, restarting on the same data dir"
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
start_server

echo "serve_smoke: verifying every design recovered (WNS/TNS to 1e-9)"
"$work/rcload" -mode verify -addr "$addr" -state "$work/state.json" \
    -out "$work/verify.json"

kill "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""

# Compose BENCH_serve.json from the three rcload reports.
{
    printf '{\n'
    printf '  "generated": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "go": "%s",\n' "$(go version | cut -d' ' -f3)"
    printf '  "ops_per_session": %s,\n' "$ops"
    printf '  "load": {\n'
    printf '    "c%s": ' "$c1"; cat "$work/load_c1.json"
    printf ',\n    "c%s": ' "$c2"; cat "$work/load_c2.json"
    printf '  },\n'
    printf '  "recovery": '; cat "$work/verify.json"
    printf '}\n'
} >BENCH_serve.json

echo "serve_smoke: wrote BENCH_serve.json"
cat BENCH_serve.json
