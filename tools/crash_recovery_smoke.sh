#!/usr/bin/env bash
# Crash-recovery smoke test for the placement daemon.
#
# Boots prvm_serve, places 500 VMs through the real socket protocol, kills
# the daemon with SIGKILL (no drain, no final snapshot), restarts it on the
# same data directory and asserts the recovered ledger is identical to the
# pre-kill one (state digest, VM count, op sequence). This is the end-to-end
# companion of the in-process differential tests in
# tests/test_service_recovery.cpp.
#
# Usage: tools/crash_recovery_smoke.sh [BUILD_DIR] [extra flags...]
# e.g.   tools/crash_recovery_smoke.sh build --fsync     # WAL flushes on the flusher thread
#        tools/crash_recovery_smoke.sh build --binary    # PRVB1 clients
# `--binary` goes to the loadgen clients (the daemon negotiates per
# connection); everything else goes to prvm_serve.
set -euo pipefail

BUILD_DIR="${1:-build}"
[ "$#" -gt 0 ] && shift
SERVE_ARGS=()
LOADGEN_ARGS=()
for arg in "$@"; do
  if [ "$arg" = "--binary" ]; then LOADGEN_ARGS+=("$arg"); else SERVE_ARGS+=("$arg"); fi
done
SERVE="$BUILD_DIR/tools/prvm_serve"
LOADGEN="$BUILD_DIR/tools/prvm_loadgen"
[ -x "$SERVE" ] && [ -x "$LOADGEN" ] || { echo "build prvm_serve + prvm_loadgen first"; exit 1; }

WORK="$(mktemp -d)"
SOCK="$WORK/prvm.sock"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

start_daemon() {
  "$SERVE" --socket "$SOCK" --fleet 2000 --data-dir "$WORK/data" \
    ${SERVE_ARGS[@]+"${SERVE_ARGS[@]}"} >> "$WORK/serve.log" 2>&1 &
  SERVE_PID=$!
  # First boot builds the score tables (later boots hit the cache); allow
  # plenty of time before declaring the daemon dead.
  for _ in $(seq 1 600); do
    [ -S "$SOCK" ] && return 0
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
      echo "FAIL: daemon died during startup"; cat "$WORK/serve.log"; exit 1
    fi
    sleep 0.5
  done
  echo "FAIL: daemon did not come up"; cat "$WORK/serve.log"; exit 1
}

field() { sed -n "s/.*$2=\\([^ ]*\\).*/\\1/p" <<< "$1"; }

start_daemon
BEFORE="$("$LOADGEN" --socket "$SOCK" ${LOADGEN_ARGS[@]+"${LOADGEN_ARGS[@]}"} --place 500)"
echo "before kill -9:  $BEFORE"

kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
rm -f "$SOCK"

start_daemon
AFTER="$("$LOADGEN" --socket "$SOCK" ${LOADGEN_ARGS[@]+"${LOADGEN_ARGS[@]}"} --stats)"
echo "after recovery:  $AFTER"

FAILED=0
for key in state_digest vm_count used_pms op_seq; do
  if [ "$(field "$BEFORE" $key)" != "$(field "$AFTER" $key)" ]; then
    echo "FAIL: $key diverged: $(field "$BEFORE" $key) -> $(field "$AFTER" $key)"
    FAILED=1
  fi
done
[ "$(field "$AFTER" recovered)" = "true" ] || { echo "FAIL: daemon did not report recovery"; FAILED=1; }
[ "$(field "$BEFORE" vm_count)" = "500" ] || { echo "FAIL: expected 500 VMs placed"; FAILED=1; }

# Graceful shutdown still works on the recovered daemon.
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "FAIL: graceful drain exited non-zero"; FAILED=1; }
SERVE_PID=""

if [ "$FAILED" -ne 0 ]; then
  cat "$WORK/serve.log"
  exit 1
fi
echo "OK: state recovered bit-identically after kill -9"
