// Online-rebalancer cost and reactivity benchmark (ISSUE 9 acceptance
// gauge; DESIGN.md §9).
//
// Two questions an operator asks before flipping --rebalance on:
//
//  1. What does the planner cost when the fleet is healthy? Measured as
//     steady-state release+place churn throughput through the real service
//     queue + WAL, planner off vs planner on at the default interval while
//     a background feeder reports balanced per-PM utilization. The gate is
//     the ISSUE's acceptance bound: planner-on must retain >= 90% of
//     planner-off throughput (the bench exits non-zero otherwise).
//
//  2. How fast does it react? A synthetic hotspot — every VM on the
//     busiest PM bursting to 1.7x its reservation — with the background
//     planner ticking at a tight interval; time-to-drain is the wall time
//     from the first hot sample until the hot PM's reserved-model
//     utilization (recomputed from live `lookup` responses and the fed
//     fractions) falls below the overload threshold.
//
// Usage: bench_rebalance [--json PATH]
//   --json PATH   additionally write machine-readable results to PATH
//   PRVM_FAST=1   shrink the fleet and op counts for a smoke run
//   PRVM_REPS     churn repetitions per config (median is reported)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "bench_util.hpp"
#include "cluster/catalog.hpp"
#include "common/rng.hpp"
#include "core/catalog_graphs.hpp"
#include "obs/metrics.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "sim/simulator.hpp"

namespace prvm {
namespace {

using Clock = std::chrono::steady_clock;

Request place_request(std::uint64_t vm, std::size_t type) {
  Request request;
  request.op = RequestOp::kPlace;
  request.vm_id = vm;
  request.vm_type_index = type;
  return request;
}

Request release_request(std::uint64_t vm) {
  Request request;
  request.op = RequestOp::kRelease;
  request.vm_id = vm;
  return request;
}

Request lookup_request(std::uint64_t vm) {
  Request request;
  request.op = RequestOp::kLookup;
  request.vm_id = vm;
  return request;
}

Request util_vm(std::uint64_t vm, double cpu) {
  Request request;
  request.op = RequestOp::kUtil;
  request.vm_id = vm;
  request.cpu = cpu;
  return request;
}

Request util_pm(std::uint64_t pm, double cpu) {
  Request request;
  request.op = RequestOp::kUtil;
  request.pm = pm;
  request.cpu = cpu;
  return request;
}

struct ChurnRun {
  double churn_pps = 0.0;
  std::size_t churn_ops = 0;
  std::uint64_t scans = 0;
  std::uint64_t moves = 0;
};

/// One fill + churn pass over a fresh service. When `planner_on`, the
/// background planner runs at its default interval and a feeder thread
/// reports a balanced 0.5 utilization for every PM every 200 ms through the
/// public `util` op — the healthy-fleet steady state, where the planner's
/// only cost is its periodic ledger-freeze scan on the worker thread.
ChurnRun run_churn(const Catalog& catalog, const std::shared_ptr<const ScoreTableSet>& tables,
                   std::size_t fleet, std::size_t churn_pairs, bool planner_on) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("prvm-bench-rebal-" + std::to_string(::getpid()) + (planner_on ? "-on" : "-off"));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ServiceConfig config;
  config.data_dir = dir;
  config.batch_size = 256;
  config.queue_capacity = 8192;
  config.rebalance.enabled = planner_on;  // default interval/thresholds otherwise
  const auto registry = std::make_shared<obs::Registry>();
  config.metrics = registry;

  ChurnRun run;
  {
    PlacementService service(catalog, mixed_pm_fleet(catalog, fleet), tables, config);

    // Fill to saturation before the clock starts (execute() is legal while
    // the worker is stopped and keeps the fill out of the measurement).
    Rng rng(7);
    const std::vector<double> mix = default_vm_mix(catalog);
    std::vector<VmId> live;
    VmId next_vm = 1;
    std::size_t rejected_streak = 0;
    while (rejected_streak < 64) {
      const VmId vm = next_vm++;
      if (service.execute(place_request(vm, rng.weighted_index(mix))).ok) {
        live.push_back(vm);
        rejected_streak = 0;
      } else {
        ++rejected_streak;
      }
    }
    service.start();

    std::atomic<bool> feeding{planner_on};
    std::thread feeder;
    if (planner_on) {
      feeder = std::thread([&] {
        while (feeding.load(std::memory_order_relaxed)) {
          for (std::size_t pm = 0; pm < fleet; ++pm) {
            service.submit(util_pm(pm, 0.5));
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
      });
    }

    // Sustained churn, FIFO-pipelined a window deep.
    const std::size_t window = 2 * config.batch_size;
    std::deque<std::future<Response>> releases;
    struct Inflight {
      std::future<Response> future;
      VmId vm = 0;
    };
    std::deque<Inflight> inflight;
    std::size_t sent = 0;
    bool triggered = false;
    const auto churn_start = Clock::now();
    while (sent < churn_pairs || !inflight.empty() || !releases.empty()) {
      while (sent < churn_pairs && inflight.size() < window && !live.empty()) {
        const std::size_t pick = rng.uniform_index(live.size());
        const VmId victim = live[pick];
        live[pick] = live.back();
        live.pop_back();
        releases.push_back(service.submit(release_request(victim)));
        const VmId vm = next_vm++;
        inflight.push_back(Inflight{service.submit(place_request(vm, rng.weighted_index(mix))), vm});
        ++sent;
      }
      // Force at least one scan to overlap the measurement even when the
      // churn window is shorter than the default interval (PRVM_FAST).
      if (planner_on && !triggered && sent >= churn_pairs / 2) {
        service.rebalancer()->trigger();
        triggered = true;
      }
      if (!releases.empty() && (releases.size() > window || inflight.empty())) {
        releases.front().get();
        releases.pop_front();
        continue;
      }
      if (inflight.empty()) {
        if (live.empty()) break;
        continue;
      }
      Inflight front = std::move(inflight.front());
      inflight.pop_front();
      if (front.future.get().ok) {
        live.push_back(front.vm);
        ++run.churn_ops;
      }
    }
    const double seconds = std::chrono::duration<double>(Clock::now() - churn_start).count();
    run.churn_pps = seconds > 0 ? static_cast<double>(run.churn_ops) / seconds : 0.0;

    if (planner_on) {
      feeding.store(false, std::memory_order_relaxed);
      feeder.join();
      const obs::Counter* scans = registry->find_counter("prvm_rebal_scans_total");
      const obs::Counter* moves = registry->find_counter("prvm_rebal_moves_total");
      run.scans = scans != nullptr ? scans->value() : 0;
      run.moves = moves != nullptr ? moves->value() : 0;
    }
    service.stop_now();
  }
  std::filesystem::remove_all(dir);
  return run;
}

struct DrainRun {
  std::size_t hot_residents = 0;
  double hot_util_before = 0.0;
  double time_to_drain_ms = -1.0;  ///< -1 = did not drain inside the timeout
  std::uint64_t moves = 0;
  std::uint64_t rounds = 0;
};

/// Synthetic hotspot: every m3.xlarge on the busiest PM bursts to 1.7x its
/// reservation while everyone else idles at 0.2x. The planner runs in the
/// background at a 50 ms interval; a feeder keeps the per-VM samples live
/// and a poller recomputes each PM's reserved-model utilization from
/// `lookup` responses until no PM exceeds the overload threshold.
DrainRun run_drain(const Catalog& catalog, const std::shared_ptr<const ScoreTableSet>& tables) {
  constexpr std::size_t kFleet = 8;
  constexpr std::uint64_t kVms = 18;
  constexpr double kOverload = 0.5;
  constexpr double kHot = 1.7;
  constexpr double kCool = 0.2;

  const std::size_t xlarge = [&] {
    for (std::size_t i = 0; i < catalog.vm_types().size(); ++i) {
      if (catalog.vm_type(i).name == "m3.xlarge") return i;
    }
    return std::size_t{0};
  }();
  const double vm_ghz = catalog.vm_type(xlarge).total_cpu_ghz();
  const std::vector<std::size_t> fleet_types = mixed_pm_fleet(catalog, kFleet);

  ServiceConfig config;
  config.rebalance.enabled = true;
  config.rebalance.overload_threshold = kOverload;
  config.rebalance.underload_threshold = 0.0;  // isolate the overload path
  config.rebalance.interval_ms = 50;
  config.rebalance.cooldown_ms = 250;
  config.rebalance.max_moves_per_round = 2;
  PlacementService service(catalog, fleet_types, tables, config);

  DrainRun run;
  for (std::uint64_t vm = 1; vm <= kVms; ++vm) {
    if (!service.execute(place_request(vm, xlarge)).ok) return run;
  }
  service.start();

  const auto pm_of = [&](std::uint64_t vm) -> std::optional<std::uint64_t> {
    const Response response = service.submit(lookup_request(vm)).get();
    return response.ok ? response.pm : std::nullopt;
  };

  // Hot PM = most residents (pigeonhole guarantees >= 3, so its burst
  // aggregate of residents * 1.7 * 2.4 GHz clears the 0.5 threshold).
  std::unordered_map<std::uint64_t, std::size_t> residents;
  std::vector<std::uint64_t> home(kVms + 1, 0);
  for (std::uint64_t vm = 1; vm <= kVms; ++vm) {
    const auto pm = pm_of(vm);
    if (!pm.has_value()) return run;
    home[vm] = *pm;
    ++residents[*pm];
  }
  const std::uint64_t hot_pm =
      std::max_element(residents.begin(), residents.end(), [](const auto& a, const auto& b) {
        return a.second < b.second || (a.second == b.second && a.first > b.first);
      })->first;
  run.hot_residents = residents[hot_pm];

  const auto fraction_of = [&](std::uint64_t vm) { return home[vm] == hot_pm ? kHot : kCool; };
  const auto utilization = [&](const std::vector<std::uint64_t>& where, std::uint64_t pm) {
    double demand = 0.0;
    for (std::uint64_t vm = 1; vm <= kVms; ++vm) {
      if (where[vm] == pm) demand += fraction_of(vm) * vm_ghz;
    }
    return demand / catalog.pm_type(fleet_types[pm]).total_cpu_ghz();
  };
  run.hot_util_before = utilization(home, hot_pm);

  // The feeder is the live utilization feed: per-VM samples through the
  // public `util` op, refreshed every 100 ms (a hot tenant stays hot
  // wherever the planner puts it — drain comes from spreading, not decay).
  std::atomic<bool> feeding{true};
  std::thread feeder([&] {
    while (feeding.load(std::memory_order_relaxed)) {
      for (std::uint64_t vm = 1; vm <= kVms; ++vm) {
        service.submit(util_vm(vm, fraction_of(vm)));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  const auto start = Clock::now();
  const auto deadline = start + std::chrono::seconds(10);
  while (Clock::now() < deadline) {
    std::vector<std::uint64_t> where(kVms + 1, 0);
    bool all_placed = true;
    for (std::uint64_t vm = 1; vm <= kVms && all_placed; ++vm) {
      const auto pm = pm_of(vm);
      if (pm.has_value()) {
        where[vm] = *pm;
      } else {
        all_placed = false;  // mid-migration; poll again
      }
    }
    if (all_placed) {
      double hottest = 0.0;
      for (std::uint64_t pm = 0; pm < kFleet; ++pm) {
        hottest = std::max(hottest, utilization(where, pm));
      }
      if (hottest < kOverload) {
        run.time_to_drain_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - start).count();
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  feeding.store(false, std::memory_order_relaxed);
  feeder.join();
  const RebalanceStatus status = service.rebalancer()->status();
  run.moves = status.total_moves;
  run.rounds = status.rounds;
  service.stop_now();
  return run;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values.empty() ? 0.0 : values[values.size() / 2];
}

}  // namespace
}  // namespace prvm

int main(int argc, char** argv) {
  using namespace prvm;

  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--json PATH]\n";
      return 2;
    }
  }

  const bool fast = bench::fast_mode();
  const std::size_t fleet = fast ? 100 : 400;
  // Fast mode still churns long enough for run-to-run noise to stay well
  // inside the 10% gate (the planner's per-scan cost is ~0.2 ms).
  const std::size_t churn_pairs = fast ? 5000 : 30000;
  const std::size_t reps = bench::repetitions();

  std::cout << "==== Online rebalancer: steady-state cost and time-to-drain ====\n"
            << "(EC2 catalog, " << fleet << " PMs, in-process submit(), real WAL, " << churn_pairs
            << " release+place churn pairs x" << reps
            << " reps per config; PRVM_FAST=1 shrinks)\n\n";

  const Catalog catalog = ec2_sim_catalog();
  const auto tables = std::make_shared<const ScoreTableSet>(build_score_tables(catalog));

  std::vector<double> off_pps, on_pps;
  std::uint64_t scans = 0, steady_moves = 0;
  std::size_t churn_ops = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const ChurnRun off = run_churn(catalog, tables, fleet, churn_pairs, false);
    const ChurnRun on = run_churn(catalog, tables, fleet, churn_pairs, true);
    off_pps.push_back(off.churn_pps);
    on_pps.push_back(on.churn_pps);
    scans += on.scans;
    steady_moves += on.moves;
    churn_ops = std::max(churn_ops, on.churn_ops);
    std::printf("  rep %zu: planner off %8.0f pl/s   on %8.0f pl/s   (%llu scans, %llu moves)\n",
                rep + 1, off.churn_pps, on.churn_pps, static_cast<unsigned long long>(on.scans),
                static_cast<unsigned long long>(on.moves));
  }
  const double off_median = median(off_pps);
  const double on_median = median(on_pps);
  // The gate compares best-of-reps: scheduler interference on a shared CI
  // box only ever slows a run down, so the fastest rep per config is the
  // cleanest estimate — a real planner cost is systematic and survives it.
  const double off_best = *std::max_element(off_pps.begin(), off_pps.end());
  const double on_best = *std::max_element(on_pps.begin(), on_pps.end());
  const double retention = off_best > 0 ? on_best / off_best : 0.0;
  const bool gate_pass = retention >= 0.9;
  std::printf("\n  churn median: planner off %8.0f pl/s   on %8.0f pl/s\n", off_median, on_median);
  std::printf("  churn best:   planner off %8.0f pl/s   on %8.0f pl/s   retention %.3f\n",
              off_best, on_best, retention);
  std::printf("  gate (planner-on >= 90%% of planner-off at default interval): %s\n\n",
              gate_pass ? "PASS" : "FAIL");

  const DrainRun drain = run_drain(catalog, tables);
  std::printf(
      "  hotspot drain: %zu residents bursting, util %.3f -> below 0.5 in %.0f ms "
      "(%llu moves over %llu rounds)\n",
      drain.hot_residents, drain.hot_util_before, drain.time_to_drain_ms,
      static_cast<unsigned long long>(drain.moves), static_cast<unsigned long long>(drain.rounds));
  const bool drained = drain.time_to_drain_ms >= 0.0 && drain.moves > 0;
  if (!drained) std::printf("  DRAIN FAILED: hotspot never fell below the threshold\n");

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "{\n"
       << "  \"benchmark\": \"rebalance\",\n"
       << "  \"catalog\": \"ec2_sim\",\n"
       << "  \"mode\": \"in_process\",\n"
       << "  \"churn\": {\n"
       << "    \"fleet_pms\": " << fleet << ", \"churn_pairs\": " << churn_pairs
       << ", \"reps\": " << reps << ", \"churn_ops\": " << churn_ops << ",\n"
       << "    \"planner_interval_ms\": " << RebalanceConfig{}.interval_ms << ",\n"
       << "    \"planner_off_placements_per_sec\": " << off_median << ",\n"
       << "    \"planner_on_placements_per_sec\": " << on_median << ",\n"
       << "    \"planner_off_best_placements_per_sec\": " << off_best << ",\n"
       << "    \"planner_on_best_placements_per_sec\": " << on_best << ",\n"
       << "    \"retention\": " << retention
       << ", \"gate\": \"best-of-reps retention >= 0.9\", "
       << "\"gate_pass\": " << (gate_pass ? "true" : "false") << ",\n"
       << "    \"scans_observed\": " << scans << ", \"steady_state_moves\": " << steady_moves
       << "\n  },\n"
       << "  \"drain\": {\n"
       << "    \"fleet_pms\": 8, \"hot_pm_residents\": " << drain.hot_residents
       << ", \"overload_threshold\": 0.5, \"hot_util_before\": " << drain.hot_util_before << ",\n"
       << "    \"planner_interval_ms\": 50, \"time_to_drain_ms\": " << drain.time_to_drain_ms
       << ", \"moves\": " << drain.moves << ", \"rounds\": " << drain.rounds << "\n  }\n"
       << "}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }

  return gate_pass && drained ? 0 : 1;
}
