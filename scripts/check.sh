#!/usr/bin/env bash
# Full pre-merge check: build the release and asan-ubsan presets and run
# the test suite under both. The sanitizer run catches out-of-bounds reads
# and UB in the trace decoders, the interval and block indexes, and the
# concurrent paths (variant runner, serve workers) that share one TraceView;
# the golden diagnoses must match in both builds.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)

for preset in release asan-ubsan; do
  echo "==> configure: $preset"
  cmake --preset "$preset"
  echo "==> build: $preset"
  cmake --build --preset "$preset" -j "$jobs"
  echo "==> test: $preset"
  ctest --preset "$preset" -j "$jobs"
done

echo "All checks passed."
