#!/usr/bin/env bash
# Cell-count x flush-group tuning sweep.
#
# Runs bench_cells in --sweep mode and prints the grid sorted by aggregate
# churn throughput, so an operator picking a deployment shape for a box can
# read the best (cells, flush_group) combination straight off. The JSON
# records hardware_threads: on a single-core box extra cells only add
# overhead, and the output says so rather than hiding it.
#
# Usage: tools/cells_sweep.sh [BUILD_DIR] [JSON_OUT]
#   PRVM_FAST=1   shrink fleet and op counts for a smoke run
set -euo pipefail

BUILD_DIR="${1:-build}"
JSON_OUT="${2:-BENCH_cells.json}"
BENCH="$BUILD_DIR/bench/bench_cells"
[ -x "$BENCH" ] || { echo "build bench_cells first (looked at $BENCH)"; exit 1; }

"$BENCH" --sweep --json "$JSON_OUT"

python3 - "$JSON_OUT" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
threads = data.get("hardware_threads", 0)
rows = sorted(data.get("sweep", []),
              key=lambda r: -r["aggregate_churn_placements_per_sec"])
print(f"\nsweep on {threads} hardware thread(s), "
      f"{data['fleet_pms']} PMs, {data['drivers']} drivers:")
print(f"{'cells':>5} {'flush':>5} {'churn pl/s':>12} {'vs serial 1-cell':>16}")
for r in rows:
    print(f"{r['cells']:>5} {r['flush_group']:>5} "
          f"{r['aggregate_churn_placements_per_sec']:>12.0f} "
          f"{r['speedup_over_serial_one_cell']:>15.2f}x")
if threads <= 2 and rows:
    print("note: few hardware threads -- extra cells mostly measure overhead here")
EOF
echo "wrote $JSON_OUT"
