#!/usr/bin/env bash
# Builds the concurrency-sensitive test binaries under ThreadSanitizer
# (via the STINDEX_SANITIZE CMake option) and runs them. Any data race —
# including one TSan finds in a passing test — fails the script. CI runs
# this on every change; run it locally before touching the thread pool,
# the parallel split pipeline, or the buffer-pool read path.
#
# Usage: scripts/check_tsan.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build-tsan}"
JOBS="$(nproc 2>/dev/null || echo 2)"
TESTS=(thread_pool_test parallel_pipeline_test concurrency_test
       backend_differential_test snapshot_backend_test trace_test
       shared_buffer_pool_test fuzz_differential_test crash_recovery_test
       live_tier_test http_exposition_test page_codec_test)

cmake -B "$BUILD_DIR" -S "$(dirname "$0")/.." \
  -DSTINDEX_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" --target "${TESTS[@]}" -j"$JOBS"

# halt_on_error: make the first race fail the binary, not just warn.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
status=0
for test in "${TESTS[@]}"; do
  echo "== TSan: $test =="
  if ! "$BUILD_DIR/tests/$test"; then
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo "ThreadSanitizer FAILED" >&2
else
  echo "ThreadSanitizer clean: ${TESTS[*]}"
fi
exit "$status"
