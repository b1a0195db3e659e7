#!/usr/bin/env bash
# Resident-memory smoke test for a cold-started placement daemon.
#
# Starts prvm_serve on an empty score-image directory, so it builds both EC2
# score tables and writes their images, waits until it answers `health`,
# and asserts that the idle daemon's anonymous resident memory (RssAnon in
# /proc/<pid>/status) stays under a budget. The
# tables themselves are served from the file mappings (RssFile), so RssAnon
# is what the cold build left on the heap plus the daemon's live state.
# The images are mapped whole and end up resident under load, so their
# total size is a budget of its own: the .img files the daemon wrote must
# sum to at most MAX_IMAGE_BYTES.
#
# Usage: tools/cold_start_rss_smoke.sh [BUILD_DIR] [MAX_RSS_ANON_KB] [MAX_IMAGE_BYTES]
# e.g.   tools/cold_start_rss_smoke.sh build 1536 1500000 (the defaults, CI's budgets)
set -euo pipefail

BUILD_DIR="${1:-build}"
MAX_KB="${2:-1536}"
MAX_IMAGE_BYTES="${3:-1500000}"
SERVE="$BUILD_DIR/tools/prvm_serve"
[ -x "$SERVE" ] || { echo "build prvm_serve first"; exit 1; }

WORK="$(mktemp -d)"
SOCK="$WORK/prvm.sock"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

"$SERVE" --socket "$SOCK" --fleet 10000 --score-image "$WORK/img" > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!

# The cold build takes about half a second on 4 CPUs; allow a slow runner
# 120 s.
python3 - "$SOCK" "$SERVE_PID" <<'EOF' || { cat "$WORK/serve.log"; exit 1; }
import json, os, socket, sys, time
sock, pid = sys.argv[1], int(sys.argv[2])
deadline = time.monotonic() + 120
while True:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        sys.exit("FAIL: daemon died during startup")
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(2)
            s.connect(sock)
            s.sendall(b'{"op":"health"}\n')
            data = b""
            while not data.endswith(b"\n"):
                chunk = s.recv(4096)
                if not chunk:
                    break
                data += chunk
        if json.loads(data).get("ok"):
            break
    except (OSError, ValueError):
        pass
    if time.monotonic() > deadline:
        sys.exit("FAIL: daemon not healthy in 120 s")
    time.sleep(0.05)
EOF

# The per-stage split of the cold build goes next to RssAnon in the output,
# so every run records where the start-up time went.
SPLIT="$(grep -h "score-table build:" "$WORK/serve.log")" ||
  { cat "$WORK/serve.log"; echo "FAIL: no score-table build split in the log"; exit 1; }
grep -h "score tables from" "$WORK/serve.log" || true
echo "$SPLIT"
RSS_ANON_KB="$(awk '/^RssAnon:/ {print $2}' "/proc/$SERVE_PID/status")"
RSS_FILE_KB="$(awk '/^RssFile:/ {print $2}' "/proc/$SERVE_PID/status")"
echo "idle cold-started prvm_serve: RssAnon ${RSS_ANON_KB} kB (budget ${MAX_KB} kB)," \
  "RssFile ${RSS_FILE_KB} kB"
IMAGE_BYTES="$(find "$WORK/img" -maxdepth 1 -name '*.img' -printf '%s\n' |
  awk '{s += $1} END {print s + 0}')"
echo "score images: ${IMAGE_BYTES} bytes (budget ${MAX_IMAGE_BYTES} bytes)"
[ "$RSS_ANON_KB" -le "$MAX_KB" ] || { echo "FAIL: RssAnon over budget"; exit 1; }
[ "$IMAGE_BYTES" -gt 0 ] || { echo "FAIL: no score image written"; exit 1; }
[ "$IMAGE_BYTES" -le "$MAX_IMAGE_BYTES" ] || { echo "FAIL: score images over budget"; exit 1; }

kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "FAIL: graceful drain exited non-zero"; exit 1; }
SERVE_PID=""
echo "cold-start RSS smoke OK"
