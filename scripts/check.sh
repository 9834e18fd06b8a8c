#!/usr/bin/env bash
# Convenience wrapper around the tier-1 verify command:
#   scripts/check.sh            configure + build + full ctest
#   scripts/check.sh unit       ... only the fast unit tier
#   scripts/check.sh scenario   ... only the seed-sweep / matrix tier
#   scripts/check.sh bench      ... bench smoke + perf-regression gate
#   scripts/check.sh sanitize   ... ASan+UBSan Debug build, unit+scenario
#                                   (the CI `sanitize` job, locally)
#   scripts/check.sh lint       ... wanmc-lint determinism rules (self-test
#                                   + live tree) and clang-tidy, if installed
#   scripts/check.sh tsan       ... TSan build; the threaded surface only:
#                                   jobs=4 golden matrix, parallel-vs-serial
#                                   sweep equality, 100-seed sweep, the
#                                   threaded backend's tests
#   scripts/check.sh loc        ... line totals of src/, tests/ and bench/
#                                   (*.cpp + *.hpp, wc -l); no build
set -euo pipefail

cd "$(dirname "$0")/.."

TIER="${1:-all}"
BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"

if [[ "$TIER" != "sanitize" && "$TIER" != "tsan" && "$TIER" != "lint" &&
      "$TIER" != "loc" ]]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$JOBS"
fi

case "$TIER" in
  all)      ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" ;;
  unit)     ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" -L unit ;;
  scenario) ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" -L scenario ;;
  bench)
    OUT="$BUILD_DIR/bench_smoke.json" scripts/bench.sh --quick \
      --check BENCH_PR13.json
    ;;
  sanitize)
    ASAN_DIR="${ASAN_DIR:-build-asan}"
    cmake -B "$ASAN_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
      -DWANMC_SANITIZE=address \
      -DWANMC_BUILD_BENCH=OFF -DWANMC_BUILD_EXAMPLES=OFF
    cmake --build "$ASAN_DIR" -j "$JOBS"
    ctest --test-dir "$ASAN_DIR" --output-on-failure -j "$JOBS"
    ;;
  lint)
    PY="${PYTHON:-python3}"
    "$PY" tools/lint/wanmc_lint.py --self-test
    "$PY" tools/lint/wanmc_lint.py
    if command -v clang-tidy >/dev/null 2>&1; then
      # clang-tidy needs compile_commands.json: configure (no build) is
      # enough, the checks run on source.
      cmake -B "$BUILD_DIR" -S . >/dev/null
      # Headers are covered through the TUs that include them
      # (HeaderFilterRegex in .clang-tidy).
      find src examples -name '*.cpp' -print0 | xargs -0 -P "$JOBS" -n 8 \
        clang-tidy -p "$BUILD_DIR" --quiet
    else
      echo "clang-tidy not installed - skipping the tidy half of the lint tier"
    fi
    ;;
  tsan)
    TSAN_DIR="${TSAN_DIR:-build-tsan}"
    cmake -B "$TSAN_DIR" -S . -DWANMC_SANITIZE=thread \
      -DWANMC_BUILD_BENCH=OFF -DWANMC_BUILD_EXAMPLES=OFF
    cmake --build "$TSAN_DIR" -j "$JOBS"
    # WANMC_JOBS=4 forces the worker pool on even on small runners, so the
    # golden matrix and the sweeps genuinely exercise the threaded paths.
    WANMC_JOBS=4 "$TSAN_DIR/test_golden_fingerprints"
    WANMC_JOBS=4 "$TSAN_DIR/test_seed_sweep"
    # The exec::ThreadedRuntime backend: one matrix cell per stack on both
    # backends, same safety properties demanded of each, and timers armed
    # and cancelled on a process thread (the CI threaded-smoke job).
    "$TSAN_DIR/test_exec_backends"
    "$TSAN_DIR/test_runtime_edges"
    ;;
  loc)
    # The one line count: ROADMAP tracks the src/ total as a headline
    # number next to the bench numbers.
    for dir in src tests bench; do
      lines=$(find "$dir" \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
        xargs -0 cat | wc -l)
      printf '%-7s %6d\n' "$dir/" "$lines"
    done
    ;;
  *)
    echo "usage: $0 [all|unit|scenario|bench|sanitize|lint|tsan|loc]" >&2
    exit 2
    ;;
esac
