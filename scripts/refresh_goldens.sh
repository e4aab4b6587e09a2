#!/usr/bin/env bash
# Regenerate tests/data/golden_diagnoses.jsonl — the committed digests of
# every registered app's undirected diagnosis, its five directed Table-1
# variants and its postmortem evaluation, which tests/golden_test.cpp
# checks.
#
# Run from the repo root after a change that is meant to move diagnosis
# output:
#
#   ./scripts/refresh_goldens.sh [build-dir]
#
# The build dir defaults to build-release (the `release` CMake preset);
# golden_dump must already be built there. The lines do not depend on the
# build type, so any build gives the same file. Commit the result together
# with the change that moved it, and say in the commit message why the
# diagnoses changed.
set -euo pipefail

build_dir=${1:-build-release}
repo_root=$(cd "$(dirname "$0")/.." && pwd)
tool="$repo_root/$build_dir/tests/golden_dump"
fixture="$repo_root/tests/data/golden_diagnoses.jsonl"

if [[ ! -x "$tool" ]]; then
  echo "error: $tool not built — run: cmake --preset release && cmake --build $build_dir --target golden_dump" >&2
  exit 1
fi

"$tool" > "$fixture.tmp"
mv "$fixture.tmp" "$fixture"
echo "wrote $(wc -l < "$fixture") lines to $fixture"
