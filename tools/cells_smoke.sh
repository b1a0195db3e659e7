#!/usr/bin/env bash
# Multi-cell smoke test: a real sharded deployment end to end.
#
# Boots two prvm_serve cell daemons (sharing one --score-image directory),
# fronts them with prvm_router over the socket protocol, then:
#   1. drives loadgen churn through the router (routing, spillover, merged
#      stats all on the hot path),
#   2. checks from the two cells' own stats and metrics that the churn kept
#      both cells busy at once: each cell placed 35-65% of the VMs, and each
#      cell's loop ran passes of more than one request (prvm_batch_size sum
#      > count), which a router that serializes its cell calls never
#      produces. Both are counts, not rates, so host load cannot fail them,
#   3. runs a spanning-group round-trip over a raw TCP connection: three
#      anti-collocation members placed (each cell's admission keeps them
#      off a shared PM), a duplicate rejected by the router's vm map, a
#      release that frees the id,
#   4. reads per-cell stats with loadgen's multi-endpoint mode,
#   5. drains everything gracefully and requires exit 0 all around.
#
# Usage: tools/cells_smoke.sh [BUILD_DIR]
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVE="$BUILD_DIR/tools/prvm_serve"
ROUTER="$BUILD_DIR/tools/prvm_router"
LOADGEN="$BUILD_DIR/tools/prvm_loadgen"
[ -x "$SERVE" ] && [ -x "$ROUTER" ] && [ -x "$LOADGEN" ] || {
  echo "build prvm_serve + prvm_router + prvm_loadgen first"; exit 1; }

WORK="$(mktemp -d)"
CELL_PIDS=()
ROUTER_PID=""
cleanup() {
  [ -n "$ROUTER_PID" ] && kill -9 "$ROUTER_PID" 2>/dev/null || true
  for pid in ${CELL_PIDS[@]+"${CELL_PIDS[@]}"}; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_for_socket() {
  local sock="$1" pid="$2" log="$3"
  for _ in $(seq 1 600); do
    [ -S "$sock" ] && return 0
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "FAIL: daemon died during startup"; cat "$log"; exit 1
    fi
    sleep 0.5
  done
  echo "FAIL: daemon did not come up"; cat "$log"; exit 1
}

# --- two cells, one shared score-table image directory ----------------------
for k in 0 1; do
  "$SERVE" --socket "$WORK/cell$k.sock" --cell-id "$k" --fleet 1000 \
    --data-dir "$WORK/cell$k" --score-image "$WORK/img" \
    > "$WORK/cell$k.log" 2>&1 &
  CELL_PIDS+=($!)
  # Serialize startup: cell 0 writes the images, cell 1 must map them.
  wait_for_socket "$WORK/cell$k.sock" "${CELL_PIDS[$k]}" "$WORK/cell$k.log"
done
grep -q "score tables from image dir" "$WORK/cell0.log" || {
  echo "FAIL: cell 0 did not report the score-image source"; cat "$WORK/cell0.log"; exit 1; }
grep -Eq "\([1-9][0-9]* mapped, 0 written\)" "$WORK/cell1.log" || {
  echo "FAIL: cell 1 did not map cell 0's score images"; cat "$WORK/cell1.log"; exit 1; }
echo "OK: 2 cells up, score-table images shared"

# --- the router, on loopback TCP so bash /dev/tcp can speak to it -----------
"$ROUTER" --port 0 --cell "unix:$WORK/cell0.sock" --cell "unix:$WORK/cell1.sock" \
  > "$WORK/router.log" 2>&1 &
ROUTER_PID=$!
PORT=""
for _ in $(seq 1 600); do
  PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$WORK/router.log")"
  [ -n "$PORT" ] && break
  kill -0 "$ROUTER_PID" 2>/dev/null || { echo "FAIL: router died"; cat "$WORK/router.log"; exit 1; }
  sleep 0.1
done
[ -n "$PORT" ] || { echo "FAIL: router did not come up"; cat "$WORK/router.log"; exit 1; }
echo "OK: router listening on 127.0.0.1:$PORT"

# --- loadgen churn through the router ---------------------------------------
"$LOADGEN" --port "$PORT" --fill-pms 100 --ops 4000 --connections 2 --pipeline 32
STATS="$("$LOADGEN" --port "$PORT" --stats)"
echo "router stats: $STATS"
grep -q "cells=2" <<< "$STATS" || { echo "FAIL: merged stats missing cells=2"; exit 1; }

# --- both cells worked, and worked concurrently -----------------------------
python3 - "$WORK/cell0.sock" "$WORK/cell1.sock" <<'EOF'
import json, socket, sys

def ask(path, op):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(30)
        s.connect(path)
        s.sendall(json.dumps({"op": op}).encode() + b"\n")
        data = b""
        while not data.endswith(b"\n"):
            chunk = s.recv(1 << 16)
            if not chunk:
                break
            data += chunk
    return json.loads(data)

cells = sys.argv[1:]
placed = [ask(path, "stats")["placed"] for path in cells]
for k, path in enumerate(cells):
    batch = ask(path, "metrics")["metrics"]["histograms"]["prvm_batch_size"]
    share = placed[k] / sum(placed)
    print(f"cell {k}: placed {placed[k]} ({share:.0%}); {batch['count']} passes "
          f"carried {batch['sum']} requests (mean {batch['mean']:.2f})")
    assert 0.35 <= share <= 0.65, f"cell {k} placed {share:.0%} of the VMs, outside 35-65%"
    assert batch["sum"] > batch["count"], (
        f"cell {k} never ran a pass of more than one request: "
        "the router's cell calls were not concurrent")
EOF
echo "OK: each cell placed its share, with requests in flight together"

# --- grouped places, a duplicate and a release over raw TCP -----------------
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
expect() {  # expect SUBSTRING <<< sent-request
  local want="$1" line
  cat >&3
  IFS= read -r line <&3
  grep -q "$want" <<< "$line" || { echo "FAIL: wanted '$want', got: $line"; exit 1; }
}
expect '"ok":true'                <<< '{"op":"place","vm":9000001,"type":0,"group":"smoke"}'
expect '"ok":true'                <<< '{"op":"place","vm":9000002,"type":0,"group":"smoke"}'
expect '"ok":true'                <<< '{"op":"place","vm":9000003,"type":0,"group":"smoke"}'
expect '"error":"duplicate_vm"'   <<< '{"op":"place","vm":9000002,"type":0,"group":"smoke"}'
expect '"ok":true'                <<< '{"op":"release","vm":9000002}'
expect '"ok":true'                <<< '{"op":"place","vm":9000002,"type":1,"group":"smoke"}'
expect '"role":"router"'          <<< '{"op":"health"}'
exec 3<&- 3>&-
echo "OK: spanning-group place/duplicate/release round-trip"

# --- per-cell visibility: loadgen multi-endpoint stats ----------------------
"$LOADGEN" --endpoint "unix:$WORK/cell0.sock" --endpoint "unix:$WORK/cell1.sock" --stats \
  | tee "$WORK/cell_stats.txt"
[ "$(wc -l < "$WORK/cell_stats.txt")" -eq 2 ] || {
  echo "FAIL: expected one stats line per cell endpoint"; exit 1; }

# --- clean drain: router first, then the cells ------------------------------
kill -TERM "$ROUTER_PID"
wait "$ROUTER_PID" || { echo "FAIL: router drain exited non-zero"; cat "$WORK/router.log"; exit 1; }
ROUTER_PID=""
for k in 0 1; do
  kill -TERM "${CELL_PIDS[$k]}"
  wait "${CELL_PIDS[$k]}" || { echo "FAIL: cell $k drain exited non-zero"; cat "$WORK/cell$k.log"; exit 1; }
done
CELL_PIDS=()
echo "OK: clean drain (router + 2 cells)"
echo "OK: multi-cell smoke passed"
