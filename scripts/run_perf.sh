#!/usr/bin/env bash
# Performance report: builds Release, runs the engine, pipeline and fleet
# self-perf microbenchmarks, then times one parallel sweep
# (bench_fig6_setpoint_sweep) at --jobs 1 vs --jobs $(nproc) and verifies
# the outputs are byte-identical. Everything lands in BENCH_perf.json,
# headed by the machine it ran on (nproc, compiler, build type, git rev);
# the format is documented in docs/performance.md.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_perf.json}"
JOBS="$(nproc)"

cmake --preset release >/dev/null
cmake --build build-release -j"$JOBS" \
  --target bench_engine_selfperf bench_pipeline_selfperf \
  bench_fleet_selfperf \
  bench_fig6_setpoint_sweep >/dev/null

# A bench whose own shape gate fails still writes its report; record it,
# and fail the script once everything is merged.
gate_failures=()
run_bench() { # $1 = bench, rest = its arguments
  "./build-release/bench/$@" || gate_failures+=("$1")
}

echo "==== engine self-perf (Release)"
run_bench bench_engine_selfperf --out "$OUT.selfperf"

echo "==== pipeline self-perf (Release)"
run_bench bench_pipeline_selfperf --out "$OUT.pipeline"

echo "==== fleet self-perf (Release)"
run_bench bench_fleet_selfperf --reps 3 --out "$OUT.fleet"

echo "==== fig6 sweep: --jobs 1 vs --jobs $JOBS"
run_sweep() { # $1 = jobs, $2 = output file; prints elapsed seconds
  local t0 t1
  t0=$(date +%s.%N)
  ./build-release/bench/bench_fig6_setpoint_sweep --jobs "$1" > "$2"
  t1=$(date +%s.%N)
  echo "$t0 $t1" | awk '{printf "%.3f", $2 - $1}'
}
seq_s=$(run_sweep 1 /tmp/fig6_jobs1.out)
par_s=$(run_sweep "$JOBS" /tmp/fig6_jobsN.out)

if ! diff -q /tmp/fig6_jobs1.out /tmp/fig6_jobsN.out >/dev/null; then
  echo "FAIL: sweep output differs between --jobs 1 and --jobs $JOBS" >&2
  diff /tmp/fig6_jobs1.out /tmp/fig6_jobsN.out | head >&2
  exit 1
fi
echo "  byte-identical output: PASS"
echo "  sequential ${seq_s}s, parallel (${JOBS} jobs) ${par_s}s"

# The machine the numbers belong to.
compiler="$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' build-release/CMakeCache.txt)"
compiler="$("$compiler" --version | head -n1)"
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' build-release/CMakeCache.txt)"
git_rev="$(git describe --always --dirty 2>/dev/null || echo unknown)"

jq --argjson seq "$seq_s" --argjson par "$par_s" --argjson jobs "$JOBS" \
  --arg compiler "$compiler" --arg build_type "$build_type" \
  --arg git_rev "$git_rev" \
  --slurpfile pipeline "$OUT.pipeline" \
  --slurpfile fleet "$OUT.fleet" \
  '{machine: {nproc: $jobs, compiler: $compiler, build_type: $build_type,
              git_rev: $git_rev}}
     + . + $pipeline[0] + $fleet[0]
     + {parallel_sweep: {bench: "bench_fig6_setpoint_sweep",
                         scenarios: 35,
                         jobs: $jobs,
                         sequential_s: $seq,
                         parallel_s: $par,
                         speedup: (if $par > 0 then $seq / $par else 0 end),
                         byte_identical: true}}' \
  "$OUT.selfperf" > "$OUT"
rm -f "$OUT.selfperf" "$OUT.pipeline" "$OUT.fleet"
echo "  [perf] $OUT"
if ((${#gate_failures[@]})); then
  echo "FAIL: shape gates failed in: ${gate_failures[*]} (numbers recorded)" >&2
  exit 1
fi
