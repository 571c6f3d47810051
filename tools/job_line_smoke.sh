#!/usr/bin/env bash
# mcmcpar_run's flags are sugar for a job line: a flag-built run and a
# --batch manifest holding the equivalent line must print the same
# circles, logP and per-tile results.
#
# usage: job_line_smoke.sh <mcmcpar_run>
set -euo pipefail

RUN_BIN=$1
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

SCENE=(--iterations 3000 --width 96 --height 96 --cells 4)
echo 'synth serial @shard=2x1 @halo=4 @seed=1' > "$WORK/line.manifest"
FLAGS=$("$RUN_BIN" --shard 2x1 --strategy serial --opt halo=4 --seed 1 \
  "${SCENE[@]}")
LINE=$("$RUN_BIN" --batch "$WORK/line.manifest" "${SCENE[@]}")
echo "$FLAGS"
echo "$LINE"

# iters, circles and logP of the sharded row, then the per-tile lines.
results() { awk '$1 == "sharded" && $9 == "ok" {print $3, $5, $6} /^ +tile-/'; }
A=$(echo "$FLAGS" | results)
B=$(echo "$LINE" | results)
[[ -n "$A" && "$A" == "$B" ]] \
  || { echo "flag-built run differs from its job line:"; \
       diff <(echo "$A") <(echo "$B") || true; exit 1; }
echo "job line smoke OK"
