#!/usr/bin/env bash
# AddressSanitizer verification: configures the `asan` preset
# (CAPGPU_SANITIZER=address into build-asan/), builds everything, and runs
# the workload, telemetry, fleet, flight and chaos test labels under ASan —
# the suites covering the monitors' sample rings, the sketch's bucket-key
# table, the fleet's per-rig telemetry merge, the flight-log reader's
# hostile-input cases plus the replay smoke, and the campaign parser's
# hostile documents plus the pinned campaign scorecards and resilience
# gate. Any out-of-bounds access, use
# after free or leak aborts the run. Complements scripts/run_ubsan.sh
# (undefined behavior) and scripts/run_tsan.sh (data races).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset asan >/dev/null
cmake --build build-asan -j"$(nproc)"

ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:strict_string_checks=1" \
  ctest --preset asan -j"$(nproc)"
