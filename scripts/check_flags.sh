#!/usr/bin/env bash
# Bench input smoke: every integer flag of the benches (--jobs and the
# bench-local --reps, --shards, --workers) must reject a negative, a
# trailing-garbage, an overflowing and an out-of-range value with exit 2
# and a message naming the flag, before the bench starts any work or
# thread; a deeply nested --campaign document must exit 2 the same way.
# Registered as the `bench_flags` CTest.
#
# Usage: check_flags.sh <bench_fleet_selfperf> <bench_pipeline_selfperf>
#                       <bench_chaos_campaigns>
set -euo pipefail

FLEET="${1:?usage: check_flags.sh <fleet_selfperf> <pipeline_selfperf> <chaos_campaigns>}"
PIPELINE="${2:?missing bench_pipeline_selfperf}"
CHAOS="${3:?missing bench_chaos_campaigns}"

status=0
# rejects <binary> <flag> <value>: exit 2 within 10 s, stderr names the flag.
rejects() {
  local err code=0
  err=$(timeout 10 "$1" "--$2" "$3" 2>&1 >/dev/null) || code=$?
  if [ "$code" -ne 2 ] || ! grep -q -- "--$2 expects an integer" <<<"$err"; then
    echo "FAIL: $(basename "$1") --$2 '$3' exited $code: $err"
    status=1
  fi
}

for value in -1 4x 1.5 99999999999999999999 1000000; do
  rejects "$FLEET" workers "$value"
  rejects "$FLEET" shards "$value"
  rejects "$FLEET" reps "$value"
  rejects "$PIPELINE" reps "$value"
  rejects "$CHAOS" shards "$value"
  rejects "$CHAOS" jobs "$value"
done
rejects "$FLEET" reps 0
rejects "$FLEET" workers 257
rejects "$CHAOS" jobs 257

# A hostile campaign document (two million nested '[') is a typed usage
# error as well, not a stack overflow.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
head -c 2000000 /dev/zero | tr '\0' '[' > "$tmp/deep.json"
code=0
err=$(timeout 10 "$CHAOS" --campaign "$tmp/deep.json" 2>&1 >/dev/null) || code=$?
if [ "$code" -ne 2 ] || ! grep -q "nesting deeper than" <<<"$err"; then
  echo "FAIL: bench_chaos_campaigns --campaign <deep> exited $code: $err"
  status=1
fi

[ "$status" -eq 0 ] && echo "PASS: malformed flags and campaign documents exit 2"
exit "$status"
