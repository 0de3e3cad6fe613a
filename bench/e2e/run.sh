#!/usr/bin/env bash
# Build the end-to-end request-path benchmark and run it.
#
#   bench/e2e/run.sh                  all four workloads, untraced, seed 1
#   bench/e2e/run.sh --traced         the same with the per-layer metrics
#   bench/e2e/run.sh --selftest       failure accounting self-test
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#                                     one run; its last stdout line is JSON
#
# Must be run from the repository root or via its path from anywhere.
# Build output goes to stderr; the build lives in
# ${CARGO_TARGET_DIR:-build}/e2e-bench.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/../.."
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "e2e: repository sources not found next to bench/e2e" >&2
  exit 2
fi

build="${CARGO_TARGET_DIR:-build}/e2e-bench"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null; then generator=(-G Ninja); fi
  cmake -S bench/e2e -B "$build" "${generator[@]}" >&2
fi
cmake --build "$build" --target e2e_bench -j 4 >&2
bin="$build/e2e_bench"

if [[ "${1:-}" == --workload ]]; then
  exec "$bin" "$@" --out-dir "$build"
fi

trace=0
case "${1:-}" in
  "") ;;
  --traced) trace=1 ;;
  --selftest) exec "$bin" --selftest --out-dir "$build" ;;
  *) echo "e2e: unknown argument $1" >&2; exit 2 ;;
esac

status=0
for w in put_rf0 put_rf2 put_wal_fsync mixed_hot; do
  "$bin" --workload "$w" --seed 1 --seconds 17 --trace "$trace" \
    --out-dir "$build" || status=1
done
exit $status
