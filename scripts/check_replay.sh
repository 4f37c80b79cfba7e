#!/usr/bin/env bash
# Flight-recorder smoke: record a closed-loop bench run with --flight-out,
# check the log is byte-identical across reruns and --jobs values (the
# ordered parallel merge must not leak scheduling), then feed it to
# capgpu_ctl_replay, which re-solves every recorded period and asserts the
# caps reproduce bit-identically. Registered as the `flight` CTest label;
# scripts/check.sh runs it via ctest.
#
# Usage: check_replay.sh <bench_binary> <capgpu_ctl_replay_binary>
set -euo pipefail

BENCH="${1:?usage: check_replay.sh <bench> <capgpu_ctl_replay>}"
REPLAY="${2:?usage: check_replay.sh <bench> <capgpu_ctl_replay>}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$BENCH" --flight-out "$tmp/flight.jsonl" --jobs 1 > /dev/null
[ -s "$tmp/flight.jsonl" ] || { echo "FAIL: flight.jsonl empty"; exit 1; }

# Determinism: a rerun and a parallel run must produce the same bytes.
"$BENCH" --flight-out "$tmp/rerun.jsonl" --jobs 1 > /dev/null
cmp "$tmp/flight.jsonl" "$tmp/rerun.jsonl" \
  || { echo "FAIL: two identical runs wrote different flight logs"; exit 1; }
"$BENCH" --flight-out "$tmp/jobs2.jsonl" --jobs 2 > /dev/null
cmp "$tmp/flight.jsonl" "$tmp/jobs2.jsonl" \
  || { echo "FAIL: --jobs 2 flight log differs from --jobs 1"; exit 1; }

# Replay: every recorded period must re-solve to bit-identical caps.
"$REPLAY" "$tmp/flight.jsonl" > "$tmp/replay.txt" \
  || { echo "FAIL: capgpu_ctl_replay found drifting periods"; \
       sed 's/^/  | /' "$tmp/replay.txt"; exit 1; }
grep -q "PASS" "$tmp/replay.txt" \
  || { echo "FAIL: replay output missing PASS"; exit 1; }

# Counterfactual what-ifs must run and report.
"$REPLAY" "$tmp/flight.jsonl" --counterfactual cap=800 \
          --counterfactual horizon=4 > "$tmp/cf.txt"
grep -q "counterfactual. cap=800" "$tmp/cf.txt" \
  || { echo "FAIL: cap counterfactual missing from output"; exit 1; }
grep -q "counterfactual. horizon=4" "$tmp/cf.txt" \
  || { echo "FAIL: horizon counterfactual missing from output"; exit 1; }

# Hostile horizons end in an input error (exit 2) at once, never a
# runaway solve: a recorded line rewritten to a 4e9-step horizon, and a
# counterfactual horizon past the controller's bound.
grep -m 1 '"prediction_horizon":' "$tmp/flight.jsonl" \
  | sed 's/"prediction_horizon":[0-9]*/"prediction_horizon":4000000000/' \
  > "$tmp/huge.jsonl"
rc=0
timeout 10 "$REPLAY" "$tmp/huge.jsonl" > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] \
  || { echo "FAIL: a 4e9-step recorded horizon exited $rc, not 2"; exit 1; }
rc=0
timeout 10 "$REPLAY" "$tmp/flight.jsonl" \
  --counterfactual horizon=4000000000 > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] \
  || { echo "FAIL: a 4e9-step counterfactual exited $rc, not 2"; exit 1; }

echo "replay smoke: PASS"
