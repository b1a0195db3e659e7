#!/usr/bin/env bash
# Metrics smoke test: boots prvm_serve with the Prometheus listener, drives
# real traffic through prvm_loadgen, and validates all three observability
# surfaces with tools/check_metrics.py:
#   - two Prometheus scrapes: every line parses, histograms are cumulative,
#     counters are monotonic across the scrapes
#   - the in-band `metrics` op: quantiles ordered (p50 <= p90 <= p99 <=
#     p999) and the queue-wait, WAL-flush and placement-compute histograms
#     all nonzero — i.e. the daemon actually measured its own pipeline.
#   - admission groups are live state only: 300 VMs placed in 100
#     anti-collocation groups over the JSON socket show up as 100 groups in
#     `stats` and in the prvm_admission_groups gauge, and releasing them
#     brings both back to 0.
#   - the engine's memo is exported: after the traffic the
#     prvm_engine_best_memo_entries and prvm_engine_memo_bytes gauges are
#     nonzero.
#   - the fleet's packing is exported: the prvm_used_pms and prvm_vms gauges
#     read what `stats` reads (used_pms, vm_count) after the grouped places
#     and after their releases, and are nonzero while the 300 VMs are placed.
#   - the process's memory is exported: the prvm_resident_bytes and
#     prvm_heap_in_use_bytes gauges, read at each scrape and each `metrics`
#     op, are nonzero in both.
#
# Usage: tools/metrics_smoke.sh [BUILD_DIR]
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVE="$BUILD_DIR/tools/prvm_serve"
LOADGEN="$BUILD_DIR/tools/prvm_loadgen"
CHECK="$(dirname "$0")/check_metrics.py"
[ -x "$SERVE" ] && [ -x "$LOADGEN" ] || { echo "build prvm_serve + prvm_loadgen first"; exit 1; }

WORK="$(mktemp -d)"
SOCK="$WORK/prvm.sock"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# WAL + fsync on, so prvm_wal_flush_ns has real samples to report.
"$SERVE" --socket "$SOCK" --fleet 500 --data-dir "$WORK/data" --fsync \
         --metrics-port 0 >> "$WORK/serve.log" 2>&1 &
SERVE_PID=$!

for _ in $(seq 1 600); do
  [ -S "$SOCK" ] && grep -q "metrics on 127.0.0.1:" "$WORK/serve.log" && break
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "FAIL: daemon died during startup"; cat "$WORK/serve.log"; exit 1
  fi
  sleep 0.5
done
[ -S "$SOCK" ] || { echo "FAIL: daemon did not come up"; cat "$WORK/serve.log"; exit 1; }
METRICS_PORT="$(sed -n 's/.*metrics on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$WORK/serve.log" | head -1)"
[ -n "$METRICS_PORT" ] || { echo "FAIL: no metrics port in log"; cat "$WORK/serve.log"; exit 1; }
echo "daemon up: socket=$SOCK metrics_port=$METRICS_PORT"

scrape() {
  python3 -c "import urllib.request, sys
sys.stdout.write(urllib.request.urlopen('http://127.0.0.1:$METRICS_PORT/metrics', timeout=10).read().decode())" > "$1"
}

# Traffic, first scrape, more traffic, second scrape: the second run fills
# to a higher target so real churn lands between the scrapes and the
# monotonicity check sees genuine counter deltas.
"$LOADGEN" --socket "$SOCK" --fill-pms 50 --ops 2000 --connections 2 --pipeline 32
scrape "$WORK/scrape1.txt"
"$LOADGEN" --socket "$SOCK" --fill-pms 250 --ops 2000 --connections 2 --pipeline 32
scrape "$WORK/scrape2.txt"
"$LOADGEN" --socket "$SOCK" --metrics > "$WORK/metrics_op.json"

FAILED=0
python3 "$CHECK" prom "$WORK/scrape1.txt" "$WORK/scrape2.txt" || FAILED=1
python3 "$CHECK" opjson "$WORK/metrics_op.json" || FAILED=1

# Grouped places and their releases. Each step ends with a `stats` round
# trip, which the daemon answers after the previous batch has updated its
# gauges, so the scrape that follows sees them.
grouped() {
  python3 - "$SOCK" "$1" <<'PY'
import json, socket, sys
sock = socket.socket(socket.AF_UNIX)
sock.connect(sys.argv[1])
stream = sock.makefile("rw")
def call(request):
    stream.write(json.dumps(request) + "\n")
    stream.flush()
    return json.loads(stream.readline())
base = 4000000000  # far above the load generator's VM ids
for i in range(300):
    if sys.argv[2] == "place":
        request = {"op": "place", "vm": base + i, "type": 0, "group": "smoke-%d" % (i // 3)}
    else:
        request = {"op": "release", "vm": base + i}
    response = call(request)
    if not response.get("ok"):
        sys.exit("%s of vm %d failed: %s" % (sys.argv[2], base + i, response))
stats = call({"op": "stats"})
print(stats["admission_groups"], stats["grouped_vms"], stats["used_pms"], stats["vm_count"])
PY
}
gauge() { sed -n "s/^$1 \([0-9]*\)\$/\1/p" "$2"; }
check_groups() {  # phase, stats line, scrape file, expected groups, expected VMs
  local groups grouped used vms got_scrape packing
  read -r groups grouped used vms <<< "$2"
  got_scrape="$(gauge prvm_admission_groups "$3") $(gauge prvm_admission_grouped_vms "$3")"
  if [ "$groups $grouped" != "$4 $5" ] || [ "$got_scrape" != "$4 $5" ]; then
    echo "FAIL: after $1 stats says groups/VMs '$groups $grouped', scrape says '$got_scrape', expected '$4 $5'"
    FAILED=1
  fi
  packing="$(gauge prvm_used_pms "$3") $(gauge prvm_vms "$3")"
  if [ "$packing" != "$used $vms" ]; then
    echo "FAIL: after $1 stats says used PMs/VMs '$used $vms', scrape says '$packing'"
    FAILED=1
  fi
}
for name in prvm_engine_best_memo_entries prvm_engine_memo_bytes \
            prvm_resident_bytes prvm_heap_in_use_bytes; do
  value="$(gauge "$name" "$WORK/scrape2.txt")"
  if [ -z "$value" ] || [ "$value" -eq 0 ]; then
    echo "FAIL: gauge $name reads '${value}' after the traffic, expected nonzero"
    FAILED=1
  fi
done
python3 - "$WORK/metrics_op.json" <<'PY' || FAILED=1
import json, sys
gauges = json.load(open(sys.argv[1]))["metrics"]["gauges"]
for name in ("prvm_resident_bytes", "prvm_heap_in_use_bytes"):
    if not gauges.get(name):
        sys.exit("FAIL: the metrics op reports %s as %r, expected nonzero" % (name, gauges.get(name)))
PY
STATS="$(grouped place)" || FAILED=1
scrape "$WORK/scrape3.txt"
check_groups "300 grouped places" "$STATS" "$WORK/scrape3.txt" 100 300
for name in prvm_used_pms prvm_vms; do
  value="$(gauge "$name" "$WORK/scrape3.txt")"
  if [ -z "$value" ] || [ "$value" -eq 0 ]; then
    echo "FAIL: gauge $name reads '${value}' with 300 VMs placed, expected nonzero"
    FAILED=1
  fi
done
STATS="$(grouped release)" || FAILED=1
scrape "$WORK/scrape4.txt"
check_groups "their releases" "$STATS" "$WORK/scrape4.txt" 0 0

kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "FAIL: graceful drain exited non-zero"; FAILED=1; }
SERVE_PID=""

if [ "$FAILED" -ne 0 ]; then
  echo "--- scrape 1 ---"; head -40 "$WORK/scrape1.txt" || true
  echo "--- metrics op ---"; head -c 2000 "$WORK/metrics_op.json" || true; echo
  cat "$WORK/serve.log"
  exit 1
fi
echo "OK: exposition parses, counters monotonic, pipeline histograms nonzero, memo and packing gauges set, groups freed"
