#!/usr/bin/env bash
# Simulator hot-path benchmark runner.
#
#   scripts/bench.sh                     full run, writes BENCH_PR13.json
#   scripts/bench.sh --quick             reduced budget (CI smoke)
#   scripts/bench.sh --check FILE        also gate against FILE (exit 1 on
#                                        a >20% events/sec regression, on
#                                        allocs/event above FILE's by more
#                                        than 20% + 0.05, on
#                                        metrics-recorder or idle-bootstrap
#                                        overhead >5%, or on
#                                        channel-substrate overhead >10%)
#   OUT=path scripts/bench.sh            write the report elsewhere
#
# All flags are passed through to bench_sim_core (--jobs N, etc.).
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"

# Default report path: the checked-in baseline for full runs, but a scratch
# file when gating (--check) so the baseline is never clobbered by the run
# that is being compared against it.
if [[ -z "${OUT:-}" ]]; then
  case " $* " in
    *" --check "*) OUT="$BUILD_DIR/bench_report.json" ;;
    *)             OUT="BENCH_PR13.json" ;;
  esac
fi

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_sim_core >/dev/null

exec "$BUILD_DIR/bench_sim_core" --out "$OUT" "$@"
