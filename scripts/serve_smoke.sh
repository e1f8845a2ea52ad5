#!/usr/bin/env bash
# End-to-end smoke test for the `fdqos serve` live ingest daemon
# (docs/serve.md), run by `ctest -L serve` and the CI serve job:
#
#   1. start the daemon on ephemeral UDP + HTTP ports with capture on,
#   2. aim a bench_serve --send-only burst at it over loopback,
#   3. validate the /metrics exposition structurally and require the
#      fdqos_serve_* + fdqos_udp_send_failures_total families,
#   4. check the /runs row carries verb "serve",
#   5. SIGTERM the daemon and require a clean exit (finalized segments),
#   6. replay a captured segment through `fdqos replay`.
#
# Usage: serve_smoke.sh FDQOS_BIN BENCH_SERVE_BIN CHECK_EXPOSITION_PY
set -u

FDQOS="$1"
BENCH="$2"
CHECKER="$3"

workdir="$(mktemp -d)"
serve_pid=""
cleanup() {
  [ -n "$serve_pid" ] && kill -9 "$serve_pid" 2> /dev/null
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
  echo "serve_smoke: FAIL: $*" >&2
  echo "--- serve.log ---" >&2
  cat "$workdir/serve.log" >&2 || true
  exit 1
}

# 1. Daemon on ephemeral ports; small segments so the burst rotates at
# least one .fdt out before shutdown.
"$FDQOS" serve --port 0 --serve-metrics 0 --max-endpoints 16 \
    --eta-ms 100 --batch 32 --segment-samples 5000 \
    --capture-dir "$workdir" --capture-prefix smoke \
    > "$workdir/serve.log" 2>&1 &
serve_pid=$!

udp_port=""
http_port=""
for _ in $(seq 1 100); do
  udp_port=$(grep -oE 'udp://127\.0\.0\.1:[0-9]+' "$workdir/serve.log" \
             | head -1 | grep -oE '[0-9]+$' || true)
  http_port=$(grep -oE 'http://127\.0\.0\.1:[0-9]+' "$workdir/serve.log" \
              | head -1 | grep -oE '[0-9]+$' || true)
  [ -n "$udp_port" ] && [ -n "$http_port" ] && break
  kill -0 "$serve_pid" 2> /dev/null || fail "daemon died during startup"
  sleep 0.1
done
[ -n "$udp_port" ] || fail "no UDP port line in serve.log"
[ -n "$http_port" ] || fail "no HTTP port line in serve.log"

for _ in $(seq 1 50); do
  curl -sf "http://127.0.0.1:$http_port/healthz" > /dev/null && break
  sleep 0.1
done
curl -sf "http://127.0.0.1:$http_port/healthz" | grep -qx ok \
    || fail "/healthz did not answer ok"

# 2. Loopback burst: enough heartbeats to rotate a 5000-sample segment.
"$BENCH" --send-only --target "$udp_port" --rate 100000 --duration-s 0.2 \
    --endpoints 8 --records 64 >> "$workdir/serve.log" 2>&1 \
    || fail "bench_serve --send-only failed"
sleep 0.5  # let the daemon drain and publish a status tick

# 3. Structural exposition check + the serve families.
curl -sf "http://127.0.0.1:$http_port/metrics" > "$workdir/scrape.prom" \
    || fail "curl /metrics failed"
python3 "$CHECKER" \
    --require fdqos_serve_batches_total \
    --require fdqos_serve_datagrams_total \
    --require fdqos_serve_drops_total \
    --require fdqos_serve_batch_size \
    --require fdqos_serve_lag_seconds \
    --require fdqos_udp_send_failures_total \
    "$workdir/scrape.prom" || fail "exposition check failed"
# The burst must actually have been counted, not just declared.
awk '$1 == "fdqos_serve_datagrams_total" && $2 + 0 > 0 { found = 1 }
     END { exit !found }' "$workdir/scrape.prom" \
    || fail "fdqos_serve_datagrams_total stayed zero"

# 4. The run registry carries the live serve row.
curl -sf "http://127.0.0.1:$http_port/runs" > "$workdir/runs.json" \
    || fail "curl /runs failed"
grep -q '"verb":"serve"' "$workdir/runs.json" || fail "no serve row in /runs"

# 5. Clean SIGTERM shutdown: exit 0 and finalized segments.
kill -TERM "$serve_pid"
serve_rc=0
wait "$serve_pid" || serve_rc=$?
serve_pid=""
[ "$serve_rc" -eq 0 ] || fail "daemon exited $serve_rc on SIGTERM"
grep -q '\[fdqos serve\] shutdown:' "$workdir/serve.log" \
    || fail "no shutdown summary in serve.log"

# 6. Every captured segment replays as a standalone trace.
segments=$(ls "$workdir"/smoke-*.fdt 2> /dev/null)
[ -n "$segments" ] || fail "no capture segments written"
for segment in $segments; do
  "$FDQOS" replay --trace "$segment" --runs 1 --cycles 40 --metric td \
      > /dev/null || fail "replay of $segment failed"
done

echo "serve_smoke: PASS (udp=$udp_port http=$http_port segments:" \
     "$(echo "$segments" | wc -w))"
