#!/usr/bin/env bash
# Project lint suite: the custom checks every PR must pass.
#   - check_blocking:  no blocking syscalls on EventLoop tick paths
#   - check_msgtype:   every MsgType names one payload struct and is
#                      fuzz-covered (and its selftest)
#   - check_atomics:   no implicit-memory-order atomics in src/obs
#   - check_log_lazy:  no eager log formatting on net/repl tick paths
#   - bench_diff:      the perf gate's selftest (seeded regressions fire)
#   - check_format:    clang-format --dry-run --Werror (skips when the
#                      binary is absent; CI enforces)
# clang-tidy runs separately (run_clang_tidy.sh needs a configured
# build tree).
set -u

HERE="$(cd "$(dirname "$0")" && pwd)"
PY="${PYTHON:-python3}"
FAILED=0

run() {
  echo "--- $*"
  if ! "$@"; then
    FAILED=1
  fi
}

run "$PY" "$HERE/check_blocking.py"
run "$PY" "$HERE/check_msgtype.py"
run "$PY" "$HERE/check_msgtype.py" --selftest
run "$PY" "$HERE/check_atomics.py"
run "$PY" "$HERE/check_log_lazy.py"
run "$PY" "$HERE/../bench_diff.py" --selftest
run bash "$HERE/check_format.sh"

if [ "$FAILED" -ne 0 ]; then
  echo "lint suite: FAILED" >&2
  exit 1
fi
echo "lint suite: all checks passed"
