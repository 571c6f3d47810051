#!/usr/bin/env bash
# End-to-end smoke test of the serving front-end, exercising both ingestion
# modes against one live server:
#   1. watch mode  — drop the 6-strategy manifest into a spool directory and
#                    wait for the result JSON to appear next to it;
#   2. socket mode — SUBMIT/WAIT/RESULT/STATS a job through mcmcpar_submit,
#                    WAIT on a job that already finished (the whole event
#                    log replays from ADMITTED seq=1), then SHUTDOWN and
#                    check the server exits cleanly.
#
# usage: serve_smoke.sh <mcmcpar_serve> <mcmcpar_submit> <manifest>
set -euo pipefail

SERVE_BIN=$1
SUBMIT_BIN=$2
MANIFEST=$3

WORK=$(mktemp -d)
SPOOL="$WORK/spool"
mkdir -p "$SPOOL"
SERVER_PID=""
cleanup() {
  [[ -n "$SERVER_PID" ]] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== starting mcmcpar_serve (watch + ephemeral socket) =="
"$SERVE_BIN" --listen 0 --watch "$SPOOL" --iterations 600 \
  --width 96 --height 96 --cells 4 --drain-timeout 20 \
  > "$WORK/serve.log" 2>&1 &
SERVER_PID=$!

PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/^LISTENING //p' "$WORK/serve.log" | head -1)
  [[ -n "$PORT" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/serve.log"; exit 1; }
  sleep 0.1
done
[[ -n "$PORT" ]] || { echo "server never reported its port"; cat "$WORK/serve.log"; exit 1; }
echo "server up on port $PORT (pid $SERVER_PID)"

echo "== watch mode: drop the all-strategies manifest =="
cp "$MANIFEST" "$SPOOL/smoke.manifest"
RESULT="$SPOOL/smoke.manifest.result.json"
for _ in $(seq 1 600); do
  [[ -f "$RESULT" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/serve.log"; exit 1; }
  sleep 0.5
done
[[ -f "$RESULT" ]] || { echo "no result JSON appeared"; cat "$WORK/serve.log"; exit 1; }
JOBS=$(grep -cve '^\s*#' -e '^\s*$' "$MANIFEST")
grep -q "\"completed\": $JOBS" "$RESULT" || { echo "unexpected result:"; cat "$RESULT"; exit 1; }
echo "result JSON OK: $(grep -o '"completed": [0-9]*' "$RESULT")"

echo "== socket mode: submit + wait + result =="
OUT=$("$SUBMIT_BIN" --port "$PORT" --progress synth serial @iters=400 @label=socket-smoke)
echo "$OUT"
echo "$OUT" | grep -q '"state": "done"' || { echo "job did not finish"; exit 1; }
"$SUBMIT_BIN" --port "$PORT" --stats | grep -q '"done"' || exit 1

echo "== late WAIT: a finished job replays its whole event log =="
ID=$("$SUBMIT_BIN" --port "$PORT" --no-wait synth serial @iters=400 @label=late-wait)
for _ in $(seq 1 300); do
  "$SUBMIT_BIN" --port "$PORT" --status "$ID" | grep -q "^OK $ID done " && break
  sleep 0.1
done
"$SUBMIT_BIN" --port "$PORT" --status "$ID" | grep -q "^OK $ID done " \
  || { echo "job $ID never finished"; exit 1; }
LATE=$("$SUBMIT_BIN" --port "$PORT" --wait "$ID" --progress 2>&1)
echo "$LATE"
[[ "$(echo "$LATE" | head -1)" == "EVENT $ID ADMITTED seq=1" ]] \
  || { echo "late WAIT did not start at EVENT $ID ADMITTED seq=1"; exit 1; }
STARTED_AT=$(echo "$LATE" | grep -n "^EVENT $ID STARTED " | cut -d: -f1)
DONE_AT=$(echo "$LATE" | grep -n "^EVENT $ID DONE " | cut -d: -f1)
[[ -n "$STARTED_AT" && -n "$DONE_AT" && "$STARTED_AT" -lt "$DONE_AT" ]] \
  || { echo "late WAIT has no STARTED before its DONE"; exit 1; }
echo "$LATE" | tail -1 | grep -q '"state": "done"' \
  || { echo "late WAIT did not end done"; exit 1; }

echo "== METRICS: Prometheus exposition, monotone across scrapes =="
"$SUBMIT_BIN" --port "$PORT" --metrics > "$WORK/metrics1.txt"
for family in \
  mcmcpar_build_info \
  mcmcpar_serve_commands_total \
  mcmcpar_serve_command_seconds_bucket \
  mcmcpar_serve_queue_wait_seconds_count \
  mcmcpar_serve_job_run_seconds_count \
  mcmcpar_serve_cache_hits_total \
  mcmcpar_serve_cache_misses_total \
  mcmcpar_serve_jobs_submitted_total \
  mcmcpar_engine_runs_total; do
  grep -q "^$family" "$WORK/metrics1.txt" \
    || { echo "METRICS is missing $family:"; cat "$WORK/metrics1.txt"; exit 1; }
done
"$SUBMIT_BIN" --port "$PORT" --metrics > "$WORK/metrics2.txt"
# A scrape renders before its own command counter increments, so scrape 1
# may not carry the METRICS series yet — that reads as 0.
SCRAPE1=$(awk '/^mcmcpar_serve_commands_total\{command="METRICS"\}/ {print $2}' "$WORK/metrics1.txt")
SCRAPE2=$(awk '/^mcmcpar_serve_commands_total\{command="METRICS"\}/ {print $2}' "$WORK/metrics2.txt")
SCRAPE1=${SCRAPE1:-0}
[[ -n "$SCRAPE2" && "$SCRAPE2" -gt "$SCRAPE1" ]] \
  || { echo "METRICS counter not monotone: '$SCRAPE1' -> '$SCRAPE2'"; exit 1; }
echo "metrics OK: METRICS scrape counter $SCRAPE1 -> $SCRAPE2"

echo "== graceful shutdown =="
"$SUBMIT_BIN" --port "$PORT" --shutdown | grep -q '^OK draining' || exit 1
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "server ignored SHUTDOWN"; cat "$WORK/serve.log"; exit 1
fi
SERVER_PID=""
grep -q '^served' "$WORK/serve.log" || { cat "$WORK/serve.log"; exit 1; }

echo "serve smoke OK"
