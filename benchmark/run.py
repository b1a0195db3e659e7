#!/usr/bin/env python3
"""Benchmark of the PageRankVM placement service.

    python3 benchmark/run.py [--workload W] [--seed S] [--seconds N] [--reps N]
                             [--trace [0|1]] [--smoke]
    python3 benchmark/run.py compare A B

A run builds a Release tree under benchmark/.build, starts the workload's
real prvm_serve / prvm_router processes from empty data and score-image
directories, drives them with benchmark/prvm_bench, checks the outputs, and
prints every metric by name and unit. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The metrics
are the end-to-end ones of BENCHMARK.json, or its per-layer ones with
--trace 1. Every run also writes a result file under benchmark/results/;
`compare A B` reads two sets of them (directories or files) and applies the
bounds of BENCHMARK.json. benchmark/README.md defines every metric.
"""

import argparse
import json
import math
import os
import platform
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / ".build"
RUNS = HERE / ".run"
RESULTS = HERE / "results"
# Memory-probe time (ms) the *_ref metrics are scaled to: about what
# prvm_bench's 150000-step pointer chase takes on a 4-vCPU Xeon KVM guest
# with quiet neighbours. benchmark/README.md explains the scaling.
REF_PROBE_MS = 20.0
# Requests of the traced closed loop at most: every one of their client
# spans is kept and written to the trace file.
TRACED_REQUESTS = 50000
# Units of the metrics that are printed but not listed in BENCHMARK.json.
UNITS = {
    "place_p50_us": "us", "place_p999_us": "us", "read_p999_us": "us", "fail_ratio": "ratio",
    "slo_rate_per_s": "pl/s", "place_per_s": "pl/s", "place_per_s_ref": "pl/s",
    "cpu_ms_per_kplace": "ms", "probe_ms": "ms", "hwm_mb": "MB",
    "place_p99_us": "us", "closed.place_p99_us": "us", "restart_s": "s",
    "snapshot.per_mop": "count", "admission.group_conflict_ratio": "ratio",
    "rebalance.util_dropped_ratio": "ratio", "replication.follower_cpu_ms_per_kplace": "ms",
    "replication.bytes_per_op": "B", "replication.acks_per_kop": "count",
    "cells.load_imbalance": "ratio", "cells.cpu_ms_per_kplace": "ms",
    "router.cpu_ms_per_kplace": "ms", "router.spillover_ratio": "ratio",
    "router.fanout_ops_per_kop": "count", "router.group_reserves_per_kop": "count",
    "router.retries": "count",
}


# ---------------------------------------------------------------------------
# Pure math (covered by test_benchmark.py)

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def at_ref_latency(values, probes_ms, direction):
    """Per-segment values scaled to the reference memory latency: a rate
    (direction +1) times probe/REF_PROBE_MS, a CPU time or a cost per op
    (-1) times REF_PROBE_MS/probe. Each segment pairs with the probe run
    right after it."""
    return [v * (p / REF_PROBE_MS) ** direction for v, p in zip(values, probes_ms)]


def step_badness(step, slo_p99_us):
    """How far a ladder step is from the SLO: p99 over its limit, <= 1
    passes. Any failed request misses it outright (open loop does no
    retries)."""
    if step["failed"] > 0 or step["place_samples"] == 0:
        return math.inf
    return max(step["place_p99_us"] / slo_p99_us, 1e-9)


def slo_rate(steps, slo_p99_us):
    """Highest offered rate meeting the SLO. The bracket is the lowest
    failing rate and the highest passing rate below it (ladder steps and
    bisection probes alike); the rate is interpolated in log(badness) --
    log(p99) when p99 is the binding limit -- between the two. With no
    failing step the top rate is a lower bound and is returned as is; when
    the lowest rate already fails, it is scaled down by its badness."""
    graded = sorted((s["rate"], step_badness(s, slo_p99_us)) for s in steps)
    fails = [(r, b) for r, b in graded if b > 1.0]
    if not fails:
        return graded[-1][0] if graded else 0.0
    rate1, bad1 = fails[0]
    passes = [(r, b) for r, b in graded if b <= 1.0 and r < rate1]
    if not passes:
        return rate1 / bad1 if math.isfinite(bad1) else 0.0
    rate0, bad0 = passes[-1]
    if not math.isfinite(bad1):
        return rate0
    frac = -math.log(bad0) / (math.log(bad1) - math.log(bad0))
    return rate0 + frac * (rate1 - rate0)


def compare_metric(a, b, bound, better):
    """Verdict for one metric between result sets `a` (parent) and `b`.

    regression: b's median is worse than a's by more than the bound.
    unresolved: either set's spread is wider than the bound -- unless every
                run of b reads better than every run of a.
    better:     b's median is better by more than a's own spread.
    same:       otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    _, ma, _ = quartiles(a)
    _, mb, _ = quartiles(b)
    worse_by = sign * (mb - ma) / abs(ma) if ma else 0.0
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    out = {"a": quartiles(a), "b": quartiles(b), "worse_by": worse_by,
           "spread_a": spread(a), "spread_b": spread(b), "bound": bound}
    if out["spread_a"] > bound or out["spread_b"] > bound:
        out["verdict"] = "better" if all_better else "unresolved"
    elif worse_by > bound:
        out["verdict"] = "regression"
    elif -worse_by > out["spread_a"] and all_better:
        out["verdict"] = "better"
    else:
        out["verdict"] = "same"
    return out


def parse_verify(text):
    """Rows of prvm_bench's verify file:
    L|R vm acked_pm acked_cell ok got_pm got_cell error group"""
    rows = []
    for line in text.splitlines():
        kind, vm, apm, acell, ok, gpm, gcell, err, group = line.split()
        rows.append({"live": kind == "L", "vm": int(vm), "acked": (int(apm), int(acell)),
                     "ok": ok == "1", "got": (int(gpm), int(gcell)),
                     "error": "" if err == "-" else err, "group": "" if group == "-" else group})
    return rows


def check_verify(rows):
    """Problems found in the verify rows: every acked live VM is found on its
    acked PM (and cell), every released VM answers unknown_vm, and the live
    members of each anti-collocation group sit on pairwise distinct PMs."""
    problems = []
    groups = {}
    for r in rows:
        if r["live"]:
            if not r["ok"]:
                problems.append(f"vm {r['vm']}: lookup failed ({r['error']})")
            elif r["got"] != r["acked"]:
                problems.append(f"vm {r['vm']}: acked on {r['acked']} but found on {r['got']}")
            if r["group"]:
                groups.setdefault(r["group"], []).append(r)
        elif r["ok"] or r["error"] != "unknown_vm":
            problems.append(f"released vm {r['vm']}: answered {'ok' if r['ok'] else r['error']}")
    for name, members in groups.items():
        where = [m["got"] for m in members]
        if len(set(where)) != len(where):
            problems.append(f"group {name}: members share a PM {sorted(where)}")
    return problems


# ---------------------------------------------------------------------------
# Definitions

def load_definitions():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((HERE / "workloads.json").read_text())
    return bench, config


# ---------------------------------------------------------------------------
# Build

def build():
    """Configures and builds the Release tree; returns the binary paths.
    Build output goes to benchmark/.run/build.log."""
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no repository sources next to {HERE.name}/ to build")
    RUNS.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(RUNS / "build.log", "w") as log:
        steps = [["cmake", "--build", str(BUILD), "-j", jobs]]
        if not (BUILD / "CMakeCache.txt").exists():
            steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                             "-DCMAKE_BUILD_TYPE=Release"])
        for argv in steps:
            if subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                tail = (RUNS / "build.log").read_text().splitlines()[-20:]
                raise RuntimeError("\n".join([f"{' '.join(argv)} failed:"] + tail))
    return {"serve": BUILD / "prvm" / "tools" / "prvm_serve",
            "router": BUILD / "prvm" / "tools" / "prvm_router",
            "bench": BUILD / "prvm_bench"}


def build_type():
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


# ---------------------------------------------------------------------------
# Processes

class Proc:
    """One serving process of a deployment, run from the workload's run dir."""

    def __init__(self, name, role, argv, sock):
        self.name, self.role, self.argv, self.sock = name, role, argv, sock
        self.popen = None

    def start(self, env):
        with open(f"{self.name}.log", "ab") as log:
            self.popen = subprocess.Popen(self.argv, stdout=log, stderr=subprocess.STDOUT,
                                          env=env)

    @property
    def pid(self):
        return self.popen.pid

    def kill(self):
        if self.popen is not None and self.popen.poll() is None:
            self.popen.send_signal(signal.SIGKILL)
        if self.popen is not None:
            self.popen.wait()


def deployment(kind, bins, fleet, img):
    serve, router = str(bins["serve"]), str(bins["router"])
    if kind == "single":
        return [Proc("serve", "cell", [serve, "--socket", "s.sock", "--fleet", str(fleet),
                                       "--data-dir", "data", "--score-image", img], "s.sock")]
    if kind == "cells":
        cells = [Proc(f"cell{k}", "cell",
                      [serve, "--socket", f"c{k}.sock", "--fleet", str(fleet // 2),
                       "--cell-id", str(k), "--data-dir", f"c{k}", "--score-image", img],
                      f"c{k}.sock") for k in range(2)]
        return cells + [Proc("router", "router",
                             [router, "--socket", "s.sock", "--cell", "unix:c0.sock",
                              "--cell", "unix:c1.sock"], "s.sock")]
    if kind == "replicated":
        return [Proc("follower", "follower",
                     [serve, "--socket", "f.sock", "--fleet", str(fleet), "--data-dir", "fdata",
                      "--score-image", img, "--follower"], "f.sock"),
                Proc("leader", "cell",
                     [serve, "--socket", "s.sock", "--fleet", str(fleet), "--data-dir", "data",
                      "--score-image", img, "--fsync", "--replica", "unix:f.sock",
                      "--ack-replicas", "1"], "s.sock")]
    raise ValueError(f"unknown deployment {kind}")


def call(sock, request, timeout=10.0):
    """One JSON-lines request on a fresh connection."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(sock)
        s.sendall((json.dumps(request) + "\n").encode())
        data = b""
        while not data.endswith(b"\n"):
            chunk = s.recv(1 << 20)
            if not chunk:
                raise RuntimeError(f"{sock}: connection closed")
            data += chunk
    return json.loads(data)


def wait_healthy(proc, deadline):
    while True:
        if proc.popen.poll() is not None:
            raise RuntimeError(f"{proc.name} exited with {proc.popen.returncode} during start")
        try:
            h = call(proc.sock, {"op": "health"}, timeout=2.0)
            if h.get("ok") and h.get("mode") == "ok":
                return
        except (OSError, ValueError, RuntimeError):
            pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"{proc.name} not healthy in time")
        time.sleep(0.005)


def start_all(procs, env):
    """Starts the processes in order, each once the previous answers health:
    cells share one score-image directory, which the first one writes."""
    t0 = time.monotonic()
    for p in procs:
        p.start(env)
        wait_healthy(p, t0 + 120)
    return time.monotonic() - t0


def wipe(path):
    if path.is_dir():
        for child in path.iterdir():
            if child.is_dir() and not child.is_symlink():
                wipe(child)
                child.rmdir()
            else:
                child.unlink()


# ---------------------------------------------------------------------------
# /proc and registry sampling

def proc_status(pid):
    out = {}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            key, _, value = line.partition(":")
            out[key] = value.strip()
    return out


def status_kb(pid, key):
    """A kB field of /proc/<pid>/status, such as VmRSS."""
    return int(proc_status(pid)[key].split()[0])


def cpu_ns(pid):
    """CPU time of every thread of `pid` so far, in ns: the first field of
    each task's schedstat, which counts at nanosecond resolution where
    utime+stime in /proc/<pid>/stat counts in clock ticks."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as f:
                total += int(f.read().split()[0])
        except FileNotFoundError:
            pass
    return total


def ctx_switches(pid):
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/status") as f:
                for line in f:
                    if line.startswith(("voluntary_ctxt_switches", "nonvoluntary_ctxt_switches")):
                        total += int(line.split()[1])
        except FileNotFoundError:
            pass
    return total


def sample(procs):
    return {p.name: {"cpu_ns": cpu_ns(p.pid), "ctx": ctx_switches(p.pid),
                     "hwm_kb": status_kb(p.pid, "VmHWM"),
                     "metrics": call(p.sock, {"op": "metrics"})["metrics"]} for p in procs}


class ThreadSampler(threading.Thread):
    """Peak total thread count of the serving processes."""

    def __init__(self, procs):
        super().__init__(daemon=True)
        self.procs, self.peak, self.stop_event = procs, 0, threading.Event()

    def run(self):
        while not self.stop_event.wait(0.1):
            try:
                self.peak = max(self.peak, sum(int(proc_status(p.pid)["Threads"])
                                               for p in self.procs))
            except (OSError, KeyError, ValueError):
                pass


# ---------------------------------------------------------------------------
# Derived metrics

def counter(m, name):
    return m["counters"].get(name, 0)


def hist(m, name):
    h = m["histograms"].get(name, {"count": 0, "sum": 0})
    return h["count"], h["sum"]


def delta(before, after, procs, fn):
    """Sum over `procs` of fn(after) - fn(before)."""
    total = 0
    for p in procs:
        total += fn(after[p]["metrics"]) - fn(before[p]["metrics"])
    return total


def ratio(num, den, default=0.0):
    return num / den if den else default


def derive(raw, wl):
    """End-to-end, per-layer and extra metrics of one run from its raw data."""
    bench = raw["bench"]
    before, after, end = raw["before"], raw["after"], raw["end"]
    roles = raw["roles"]
    cells = [n for n, r in roles.items() if r == "cell"]
    serving = list(roles)
    closed = bench["closed"]
    ladder = bench["ladder"]
    nominal = next((s for s in ladder if s["nominal"]), {})

    kplace = closed["places_ok"] / 1000.0
    segments = closed["segments"]
    seg_cpu = raw["segment_cpu"]
    seg_cpu_ms = [sum(seg_cpu[k + 1][n] - seg_cpu[k][n] for n in roles) / 1e6
                  for k in range(len(segments))]
    seg_rates = [g["place_per_s"] for g in segments]
    seg_cpu_per_kplace = [ratio(ms, g["places_ok"] / 1000.0)
                          for ms, g in zip(seg_cpu_ms, segments)]
    seg_probe = [g["probe_ms"] for g in segments]
    seg_kplace = sum(g["places_ok"] for g in segments) / 1000.0

    def cpu_ms(names):
        return sum(after[n]["cpu_ns"] - before[n]["cpu_ns"] for n in names) / 1e6

    def hmean(names, name, scale, snaps=(before, after)):
        b, a = snaps
        cnt = sum(hist(a[n]["metrics"], name)[0] - hist(b[n]["metrics"], name)[0] for n in names)
        tot = sum(hist(a[n]["metrics"], name)[1] - hist(b[n]["metrics"], name)[1] for n in names)
        return ratio(tot, cnt) / scale

    def cdelta(names, name):
        return delta(before, after, names, lambda m: counter(m, name))

    zero = {n: {"metrics": {"counters": {}, "histograms": {}}} for n in serving}
    appends = cdelta(cells, "prvm_wal_appends_total")
    e2e = {
        "setup_s": statistics.median(raw["setups"]),
        "place_per_s": statistics.median(seg_rates),
        "place_per_s_ref": statistics.median(at_ref_latency(seg_rates, seg_probe, +1)),
        "place_p50_us": nominal.get("place_p50_us"),
        "place_p999_us": nominal.get("place_p999_us"),
        "read_p999_us": nominal.get("read_p999_us") if wl["traffic"]["reads"] else None,
        "slo_rate_per_s": slo_rate(ladder, bench["slo_p99_us"]),
        "fail_ratio": ratio(bench["failed"], bench["attempted"]),
        "vms_per_used_pm": ratio(sum(g["vm_count"] for g in segments),
                                 sum(g["used_pms"] for g in segments)),
        "cpu_ms_per_kplace": ratio(sum(seg_cpu_ms), seg_kplace),
        "cpu_ms_per_kplace_ref": ratio(sum(at_ref_latency(seg_cpu_ms, seg_probe, -1)),
                                       seg_kplace),
        "probe_ms": statistics.median(seg_probe),
        "rss_mb": statistics.median(raw["segment_rss_kb"]) / 1024.0,
        "hwm_mb": sum(end[n]["hwm_kb"] for n in serving) / 1024.0,
    }
    placed = [cdelta([n], "prvm_ops_placed_total") for n in cells]
    layers = {
        "placement.compute_mean_us": hmean(cells, "prvm_place_compute_ns", 1e3),
        "placement.score_lookups_per_place": ratio(
            cdelta(cells, "prvm_engine_score_lookups_total"),
            cdelta(cells, "prvm_engine_place_total")),
        "placement.index_probes_per_place": ratio(
            cdelta(cells, "prvm_engine_index_probes_total"),
            cdelta(cells, "prvm_engine_place_total")),
        "placement.rep_cache_hit_ratio": ratio(
            cdelta(cells, "prvm_engine_rep_cache_hits_total"),
            cdelta(cells, "prvm_engine_rep_cache_hits_total")
            + cdelta(cells, "prvm_engine_rep_cache_misses_total")),
        "service.queue_wait_mean_us": hmean(cells, "prvm_queue_wait_ns", 1e3),
        "service.batch_size_mean": hmean(cells, "prvm_batch_size", 1.0),
        "socket_server.ctx_switches_per_op": ratio(
            sum(after[n]["ctx"] - before[n]["ctx"] for n in serving), closed["requests"]),
        "socket_server.threads_peak": raw["threads_peak"],
        "wal.flush_mean_us": hmean(cells, "prvm_wal_flush_ns", 1e3),
        "wal.flushes_per_kop": 1000.0 * ratio(
            delta(before, after, cells, lambda m: hist(m, "prvm_wal_flush_ns")[0]), appends),
        "wal.fsync_mean_us": hmean(cells, "prvm_io_fsync_ns", 1e3, (zero, end)),
        "snapshot.mean_ms": hmean(cells, "prvm_snapshot_ns", 1e6, (zero, end)),
        "replication.bytes_per_op": ratio(cdelta(cells, "prvm_repl_bytes_total"), appends),
        "replication.acks_per_kop": 1000.0 * ratio(cdelta(cells, "prvm_repl_acks_total"),
                                                   appends),
        "cells.load_imbalance": ratio(max(placed), min(placed), 1.0),
        "cells.cpu_ms_per_kplace": ratio(cpu_ms(cells), kplace),
        "loadgen.late_p99_us": nominal["late_p99_us"] if nominal else None,
    }
    extras = {
        "snapshot.per_mop": 1e6 * ratio(
            sum(counter(end[n]["metrics"], "prvm_snapshots_total") for n in cells),
            sum(counter(end[n]["metrics"], "prvm_wal_appends_total") for n in cells)),
        "admission.group_conflict_ratio": ratio(
            cdelta(cells, "prvm_reject_group_conflict_total"), closed["places_ok"]),
        "rebalance.util_dropped_ratio": ratio(
            cdelta(cells, "prvm_rebal_util_dropped_total"),
            cdelta(cells, "prvm_rebal_util_samples_total")),
        "place_p99_us": nominal.get("place_p99_us"),
        "closed.place_p99_us": closed["place_p99_us"],
        "restart_s": raw.get("restart_s"),
    }
    followers = [n for n, r in roles.items() if r == "follower"]
    if followers:
        extras["replication.follower_cpu_ms_per_kplace"] = ratio(cpu_ms(followers), kplace)
    routers = [n for n, r in roles.items() if r == "router"]
    if routers:
        requests = cdelta(routers, "prvm_router_requests_total")
        extras.update({
            "router.cpu_ms_per_kplace": ratio(cpu_ms(routers), kplace),
            "router.spillover_ratio": ratio(cdelta(routers, "prvm_router_spillover_total"),
                                            closed["places_ok"]),
            "router.fanout_ops_per_kop": 1000.0 * ratio(
                cdelta(routers, "prvm_router_fanout_ops_total"), requests),
            "router.group_reserves_per_kop": 1000.0 * ratio(
                cdelta(routers, "prvm_router_group_reserves_total"), requests),
            "router.retries": cdelta(routers, "prvm_router_retries_total"),
        })
    replay = bench.get("replay")
    if replay:
        for name in ("placement.place_ns", "cluster.remove_ns", "service.execute_ns",
                     "service.submit_rtt_us", "router.submit_rtt_us",
                     "protocol.parse_request_ns", "protocol.encode_response_ns",
                     "binary_protocol.parse_request_ns", "binary_protocol.encode_response_ns",
                     "wal.append_ns", "wal.flush_batch_us", "wal.replay_records_per_s",
                     "core.score_table_build_ms"):
            layers[name] = replay[name]
        serving_us_per_op = 1000.0 * ratio(cpu_ms(serving), closed["requests"])
        layers["trace.unattributed_us_per_op"] = (serving_us_per_op
                                                  - replay["server_self_ns_per_op"] / 1e3)
        layers["trace.overhead_ratio"] = ratio(closed["place_per_s"],
                                               bench["traced"]["place_per_s"]) - 1.0
    per_segment = {"place_per_s": seg_rates, "cpu_ms_per_kplace": seg_cpu_per_kplace,
                   "probe_ms": seg_probe}
    return e2e, layers, extras, per_segment


# ---------------------------------------------------------------------------
# One run

def phase_plan(wl, config, seconds, smoke):
    """Unit counts and step lengths of one run at the workload's recorded
    capacity: the warm-up lasts as long as the workload takes to reach its
    steady rate, the closed loop and the ladder steps are shares of
    --seconds, and the nominal step sends a fixed unit count, about a
    second's worth (smoke: toy sizes)."""
    if smoke:
        s = config["smoke"]
        return {"fleet": s["fleet"], "fill_pms": s["fill_pms"], "warmup": s["warmup_units"],
                "closed": s["closed_units"], "ladder": [r * s["rate_scale"] for r in wl["ladder"]],
                "step_s": s["step_s"], "nominal_units": 0, "setups": 1,
                "segments": s["closed_segments"], "replay": s["replay_requests"]}
    share, cap = config["shares"], wl["capacity"]
    return {"fleet": 10000, "fill_pms": config["fill_pms"],
            "warmup": int(cap * wl["warmup_s"]),
            "closed": int(cap * share["closed"] * seconds),
            "segments": config["closed_segments"], "ladder": wl["ladder"],
            "step_s": share["step"] * seconds, "nominal_units": wl["nominal_units"],
            "setups": config["setups"], "replay": config["replay_requests"]}


def run_workload(name, wl, config, bins, seed, seconds, trace, smoke, phases):
    rundir = RUNS / name
    rundir.mkdir(parents=True, exist_ok=True)
    os.chdir(rundir)
    plan = phase_plan(wl, config, seconds, smoke)
    env = dict(os.environ)
    # An empty binary cache: a warm one would turn the cold table build into
    # a file load.
    env["PRVM_CACHE_DIR"] = "cache"
    # Smoke runs share one warm score-image directory, so only the first
    # workload pays the table build; full runs start every setup cold.
    img = str(RUNS / "smoke-img") if smoke else "img"
    procs = deployment(wl["deployment"], bins, plan["fleet"], img)
    raw = {"roles": {p.name: p.role for p in procs}, "setups": []}
    problems = []
    bench_proc = None
    sampler = None
    try:
        t = time.monotonic()
        n_setups = 1 if trace else plan["setups"]
        for i in range(n_setups):
            for p in procs:
                p.kill()
            for d in ("data", "fdata", "c0", "c1", "img", "cache"):
                wipe(Path(d))
            raw["setups"].append(start_all(procs, env))
        phases["setup"] = time.monotonic() - t

        traffic = wl["traffic"]
        argv = [str(bins["bench"]), "load", "--endpoint", "s.sock", "--codec", wl["codec"],
                "--seed", str(seed), "--fill-pms", str(plan["fill_pms"]),
                "--warmup-units", str(plan["warmup"]), "--closed-units", str(plan["closed"]),
                "--closed-segments", str(plan["segments"]),
                "--ladder", ",".join(str(r) for r in plan["ladder"]),
                "--step-s", str(plan["step_s"]),
                "--group-share", str(traffic["group_share"]), "--reads", str(traffic["reads"]),
                "--utils", str(traffic["utils"]), "--out", "bench.json",
                "--verify-out", "verify.txt"]
        if plan["nominal_units"]:
            argv += ["--nominal-units", str(plan["nominal_units"])]
        if trace:
            RESULTS.mkdir(parents=True, exist_ok=True)
            per_unit = 2 + traffic["reads"] + traffic["utils"]
            traced_units = min(plan["closed"] // 4, TRACED_REQUESTS // per_unit)
            argv += ["--traced-units", str(traced_units),
                     "--replay-requests", str(plan["replay"]),
                     "--replay-fleet", str(plan["fleet"]),
                     "--replay-fsync", "1" if wl["deployment"] == "replicated" else "0",
                     "--trace-out", str(RESULTS / f"trace-{name}.json")]
        sampler = ThreadSampler(procs)
        sampler.start()
        with open("bench.log", "wb") as log:
            bench_proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                          stderr=log, text=True)
            # CPU and resident memory at every segment edge of the closed loop.
            raw["segment_cpu"], raw["segment_rss_kb"] = [], []
            for line in bench_proc.stdout:
                if line.startswith("@sync "):
                    point = line.split()[1]
                    raw["segment_cpu"].append({p.name: cpu_ns(p.pid) for p in procs})
                    raw["segment_rss_kb"].append(sum(status_kb(p.pid, "VmRSS") for p in procs))
                    if point in ("closed-begin", "closed-end"):
                        raw["before" if point == "closed-begin" else "after"] = sample(procs)
                    bench_proc.stdin.write("go\n")
                    bench_proc.stdin.flush()
            code = bench_proc.wait()
        sampler.stop_event.set()
        if code != 0:
            raise RuntimeError(f"prvm_bench exited with {code}; see {rundir / 'bench.log'}")
        raw["threads_peak"] = sampler.peak
        raw["bench"] = json.loads(Path("bench.json").read_text())
        for k, v in raw["bench"]["phase_s"].items():
            phases[k] = v

        t = time.monotonic()
        raw["end"] = sample(procs)
        problems += check_verify(parse_verify(Path("verify.txt").read_text()))
        if raw["bench"]["check_failures"]:
            problems.append(f"{raw['bench']['check_failures']} inline lookups disagreed "
                            "with the acked PM")
        if raw["bench"]["dropped_spans"]:
            problems.append(f"{raw['bench']['dropped_spans']} spans did not fit the trace buffers")
        serve = [p for p in procs if p.role != "router"]
        stats = {p.name: call(p.sock, {"op": "stats"}) for p in serve}
        if wl["deployment"] == "replicated":
            problems += check_replica(procs, stats)
        phases["checks"] = time.monotonic() - t

        t = time.monotonic()
        for p in serve:
            p.kill()
        raw["restart_s"] = start_all(serve, env)
        for p in serve:
            again = call(p.sock, {"op": "stats"})
            for key in ("state_digest", "vm_count"):
                if again[key] != stats[p.name][key]:
                    problems.append(f"{p.name}: {key} {stats[p.name][key]} before kill -9, "
                                    f"{again[key]} after restart")
        phases["restart"] = time.monotonic() - t
    finally:
        t = time.monotonic()
        if sampler is not None:
            sampler.stop_event.set()
        if bench_proc is not None and bench_proc.poll() is None:
            bench_proc.kill()
            bench_proc.wait()
        for p in procs:
            p.kill()
        phases["teardown"] = time.monotonic() - t
        os.chdir(ROOT)
    return raw, problems


def check_replica(procs, stats):
    """Follower and leader digests match at equal op_seq."""
    leader = next(p for p in procs if p.role == "cell")
    follower = next(p for p in procs if p.role == "follower")
    deadline = time.monotonic() + 5
    while True:
        f = call(follower.sock, {"op": "stats"})
        if f["op_seq"] >= stats[leader.name]["op_seq"] or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    stats[follower.name] = f
    if f["op_seq"] != stats[leader.name]["op_seq"]:
        return [f"follower at op_seq {f['op_seq']}, leader at {stats[leader.name]['op_seq']}"]
    if f["state_digest"] != stats[leader.name]["state_digest"]:
        return [f"follower digest {f['state_digest']} != leader {stats[leader.name]['state_digest']}"
                f" at op_seq {f['op_seq']}"]
    return []


# ---------------------------------------------------------------------------
# Reporting

def machine():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "platform": platform.platform()}


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def fmt(v):
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def print_run(name, result, bench_def):
    units = dict(UNITS, **{m["name"]: m["unit"]
                           for m in bench_def["end_to_end"] + bench_def["per_layer"]})
    print(f"== {name} (seed {result['seed']}) ==")
    print("phases_s: " + " ".join(f"{k}={v:.2f}" for k, v in result["phases_s"].items()))
    for group in ("e2e", "layers", "extras"):
        for k, v in result[group].items():
            print(f"  {k:<40} {fmt(v):>14} {units[k]}")
    for step in result["ladder"]:
        print(f"  {'probe' if step['probe'] else 'ladder'} {step['rate']:>9.0f}/s  "
              f"{'pass' if step['pass'] else 'MISS'}  "
              f"p50 {step['place_p50_us']:9.1f} us  p99 {step['place_p99_us']:9.1f} us  "
              f"late p99 {step['late_p99_us']:7.1f} us  failed {step['failed']:.0f}")
    for p in result["problems"]:
        print(f"  CHECK FAILED: {p}")
    print(f"  checks: {'ok' if not result['problems'] else 'FAILED'}")


def run_main(args):
    bench_def, config = load_definitions()
    names = [args.workload] if args.workload else list(config["workloads"])
    for n in names:
        if n not in config["workloads"]:
            raise SystemExit(f"unknown workload {n}; have {', '.join(config['workloads'])}")
    seed = config["seed"] if args.seed is None else args.seed
    seconds = config["seconds"] if args.seconds is None else args.seconds
    trace = bool(args.trace)
    t_build = time.monotonic()
    try:
        bins = build()
    except (RuntimeError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    build_s = time.monotonic() - t_build
    RESULTS.mkdir(parents=True, exist_ok=True)
    meta = dict(machine(), build_type=build_type(), git_commit=git_commit())
    wanted = bench_def["per_layer"] if trace else bench_def["end_to_end"]
    all_ok, attempted, failed = True, 0, 0
    per_workload = {}
    for name in names:
        wl = config["workloads"][name]
        for rep in range(args.reps):
            run_seed = seed + rep
            phases = {"build": build_s}
            load_start = os.getloadavg()
            t = time.monotonic()
            try:
                raw, problems = run_workload(name, wl, config, bins, run_seed, seconds, trace,
                                             args.smoke, phases)
            except (RuntimeError, OSError, ValueError, KeyError) as e:
                print(f"run.py: {name}: {e}", file=sys.stderr)
                return 1
            phases["total"] = time.monotonic() - t
            e2e, layers, extras, per_segment = derive(raw, wl)
            result = dict(meta, workload=name, seed=run_seed, seconds=seconds, trace=trace,
                          smoke=args.smoke, loadavg_start=load_start,
                          loadavg_end=os.getloadavg(), phases_s=phases, e2e=e2e,
                          layers=layers, extras=extras, closed_segments=per_segment,
                          ladder=raw["bench"]["ladder"], problems=problems,
                          attempted=raw["bench"]["attempted"], failed=raw["bench"]["failed"],
                          errors=raw["bench"]["errors"], setups_s=raw["setups"])
            missing = [m["name"] for m in wanted
                       if not isinstance(dict(e2e, **layers).get(m["name"]), (int, float))]
            if missing:
                problems.append("metrics not measured: " + ", ".join(missing))
            stamp = time.strftime("%Y%m%d-%H%M%S")
            (RESULTS / f"{name}-s{run_seed}-{stamp}{'-trace' if trace else ''}.json").write_text(
                json.dumps(result, indent=1) + "\n")
            print_run(name, result, bench_def)
            all_ok = all_ok and not problems
            attempted += result["attempted"]
            failed += result["failed"]
            per_workload.setdefault(name, []).append(dict(e2e, **layers))
    metrics = {}
    units = {m["name"]: m["unit"] for m in wanted}
    for name, runs in per_workload.items():
        for m in wanted:
            vals = [r[m["name"]] for r in runs if isinstance(r.get(m["name"]), (int, float))]
            if not vals:
                continue
            key = m["name"] if len(per_workload) == 1 else f"{name}.{m['name']}"
            metrics[key] = {"value": statistics.median(vals), "unit": units[m["name"]]}
    print(json.dumps({"correct": all_ok, "attempted": int(attempted), "failed": int(failed),
                      "metrics": metrics}))
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# compare

def load_results(spec):
    paths = sorted(Path(spec).glob("*.json")) if Path(spec).is_dir() else [Path(spec)]
    out = {}
    for p in paths:
        if p.name.startswith("trace-"):
            continue
        r = json.loads(p.read_text())
        out.setdefault(r["workload"], []).append(r)
    return out


def compare_main(a_spec, b_spec):
    bench_def, _ = load_definitions()
    a, b = load_results(a_spec), load_results(b_spec)
    worst = 0
    for workload in sorted(set(a) & set(b)):
        ra, rb = a[workload], b[workload]
        print(f"== {workload}: {len(ra)} vs {len(rb)} runs ==")
        for label, runs in (("A", ra), ("B", rb)):
            r = runs[0]
            print(f"  {label}: {r['git_commit'][:12]} nproc={r['nproc']} {r['cpu_model']} "
                  f"{r['build_type']} seeds={sorted(x['seed'] for x in runs)}")
        for m in bench_def["end_to_end"]:
            va = [r["e2e"][m["name"]] for r in ra if r["e2e"].get(m["name"]) is not None]
            vb = [r["e2e"][m["name"]] for r in rb if r["e2e"].get(m["name"]) is not None]
            if not va or not vb:
                continue
            c = compare_metric(va, vb, m["bound"], m["better"])
            worst = max(worst, {"regression": 2, "unresolved": 1}.get(c["verdict"], 0))
            print(f"  {m['name']:<22} A {c['a'][1]:12.5g} [{c['a'][0]:.5g}, {c['a'][2]:.5g}]"
                  f"  B {c['b'][1]:12.5g} [{c['b'][0]:.5g}, {c['b'][2]:.5g}]"
                  f"  worse by {100 * c['worse_by']:+6.2f}%  bound {100 * m['bound']:.1f}%"
                  f"  spread {100 * c['spread_a']:.1f}%/{100 * c['spread_b']:.1f}%"
                  f"  {c['verdict']}")
        gated = {m["name"] for m in bench_def["end_to_end"]}
        ungated = [("e2e", k, UNITS[k]) for k in ra[0]["e2e"] if k not in gated]
        for group, name, unit in ungated + [("layers", m["name"], m["unit"])
                                            for m in bench_def["per_layer"]]:
            va = [r[group][name] for r in ra if r[group].get(name) is not None]
            vb = [r[group][name] for r in rb if r[group].get(name) is not None]
            if va and vb:
                print(f"  {name:<40} A {statistics.median(va):12.5g}"
                      f"  B {statistics.median(vb):12.5g} {unit}")
    return 1 if worst == 2 else 0


def main(argv):
    # A terminated run still stops and reaps every process it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A B", file=sys.stderr)
            return 2
        return compare_main(argv[1], argv[2])
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--reps", type=int, default=1)
    ap.add_argument("--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="toy sizes, same checks")
    return run_main(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
