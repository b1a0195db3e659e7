// Multi-cell churn throughput benchmark (DESIGN.md §7 acceptance gauge).
//
// Runs the Router over N embedded cells (each a full PlacementService with
// its own worker, WAL and data directory) at N = 1, 2, 4 and measures
// aggregate release+place churn throughput through the router, driven by
// several pipelined client threads. One engine serializes all placement
// compute on its single worker thread; cells multiply the worker count, so
// on a multi-core box aggregate churn at >= 2 cells should beat the
// one-cell ceiling (the CI smoke job asserts >= 1.5x when enough cores are
// present). hardware_threads is recorded so single-core results — where
// cells only add routing overhead — read as what they are.
//
// Usage: bench_cells [--json PATH]
//   PRVM_FAST=1   shrink fleet and op counts for a smoke run
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cells/embedded.hpp"
#include "common/rng.hpp"
#include "core/catalog_graphs.hpp"
#include "router/router.hpp"
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

struct DriverResult {
  std::size_t fill_placed = 0;
  std::size_t churn_places = 0;
  double churn_seconds = 0.0;
};

/// One pipelined client of the router: fill until the fleet saturates, then
/// `churn_pairs` release+place pairs. Futures resolve in FIFO submit order
/// (the router's deferred continuations run at get()), mirroring how the
/// socket writer drives it.
void run_driver(Router& router, const std::vector<double>& mix, std::size_t index,
                std::size_t churn_pairs, std::atomic<bool>& fill_done,
                DriverResult& result) {
  Rng rng(0xce11ull * (index + 1));
  std::uint64_t next_vm = (static_cast<std::uint64_t>(index) + 1) << 24;
  constexpr std::size_t kWindow = 128;
  std::vector<std::uint64_t> live;

  struct Inflight {
    std::future<Response> future;
    std::uint64_t vm = 0;
    bool is_place = false;
  };
  std::deque<Inflight> inflight;
  const auto settle_one = [&](bool timing) {
    Inflight front = std::move(inflight.front());
    inflight.pop_front();
    const Response response = front.future.get();
    if (front.is_place && response.ok) {
      live.push_back(front.vm);
      if (timing) ++result.churn_places;
      else ++result.fill_placed;
    }
    return front.is_place && !response.ok;
  };

  // Fill until the router-wide fleet stops accepting (64 consecutive
  // rejections on this driver) or another driver called saturation first.
  std::size_t rejected_streak = 0;
  while (!fill_done.load(std::memory_order_relaxed) && rejected_streak < 64) {
    while (inflight.size() < kWindow) {
      const std::uint64_t vm = next_vm++;
      inflight.push_back(
          Inflight{router.submit(place_request(vm, rng.weighted_index(mix))), vm, true});
    }
    while (inflight.size() > kWindow / 2) {
      if (settle_one(false)) ++rejected_streak;
      else rejected_streak = 0;
    }
  }
  fill_done.store(true, std::memory_order_relaxed);
  while (!inflight.empty()) settle_one(false);

  const auto churn_start = Clock::now();
  std::size_t sent = 0;
  while (sent < churn_pairs || !inflight.empty()) {
    while (sent < churn_pairs && inflight.size() + 2 <= kWindow && !live.empty()) {
      const std::size_t pick = rng.uniform_index(live.size());
      const std::uint64_t victim = live[pick];
      live[pick] = live.back();
      live.pop_back();
      inflight.push_back(Inflight{router.submit(release_request(victim)), victim, false});
      const std::uint64_t vm = next_vm++;
      inflight.push_back(
          Inflight{router.submit(place_request(vm, rng.weighted_index(mix))), vm, true});
      ++sent;
    }
    if (inflight.empty()) break;  // ran out of live VMs
    settle_one(true);
  }
  result.churn_seconds = std::chrono::duration<double>(Clock::now() - churn_start).count();
}

struct CellsRun {
  std::size_t cells = 0;
  std::size_t fill_placed = 0;
  std::size_t churn_places = 0;
  double churn_pps = 0.0;  ///< aggregate across drivers (slowest window)
  std::uint64_t spillover = 0;
};

CellsRun run_cells(const Catalog& catalog,
                   const std::shared_ptr<const ScoreTableSet>& tables, std::size_t fleet,
                   std::size_t cells, std::size_t drivers, std::size_t churn_pairs) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("prvm-bench-cells-" + std::to_string(::getpid()) + "-" + std::to_string(cells));
  std::filesystem::remove_all(dir);

  CellsRun run;
  run.cells = cells;
  {
    EmbeddedCellsConfig config;
    config.cells = cells;
    config.data_dir = dir;
    config.service.batch_size = 64;
    EmbeddedCells embedded(catalog, mixed_pm_fleet(catalog, fleet), tables, config);
    embedded.start();
    Router router(embedded.sinks());

    const std::vector<double> mix = default_vm_mix(catalog);
    std::atomic<bool> fill_done{false};
    std::vector<DriverResult> results(drivers);
    std::vector<std::thread> threads;
    const std::size_t pairs_per_driver = (churn_pairs + drivers - 1) / drivers;
    for (std::size_t d = 0; d < drivers; ++d) {
      threads.emplace_back([&, d] {
        run_driver(router, mix, d, pairs_per_driver, fill_done, results[d]);
      });
    }
    for (auto& thread : threads) thread.join();

    double slowest = 0.0;
    for (const DriverResult& r : results) {
      run.fill_placed += r.fill_placed;
      run.churn_places += r.churn_places;
      slowest = std::max(slowest, r.churn_seconds);
    }
    run.churn_pps = slowest > 0 ? static_cast<double>(run.churn_places) / slowest : 0.0;
    const obs::Counter* spill =
        router.metrics_registry().find_counter("prvm_router_spillover_total");
    if (spill != nullptr) run.spillover = spill->value();
    embedded.stop_now();
  }
  std::filesystem::remove_all(dir);
  return run;
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
  const bool fast = std::getenv("PRVM_FAST") != nullptr;
  const std::size_t fleet = fast ? 400 : 3000;
  const std::size_t churn_pairs = fast ? 2000 : 20000;
  const std::size_t drivers = 4;
  const unsigned hardware_threads = std::thread::hardware_concurrency();

  const Catalog catalog = ec2_sim_catalog();
  const auto tables =
      std::make_shared<const ScoreTableSet>(build_score_tables(catalog));

  std::printf("bench_cells: fleet %zu PMs, %zu drivers, %zu churn pairs, %u hardware threads\n",
              fleet, drivers, churn_pairs, hardware_threads);
  std::vector<CellsRun> runs;
  for (const std::size_t cells : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    runs.push_back(run_cells(catalog, tables, fleet, cells, drivers, churn_pairs));
    const CellsRun& run = runs.back();
    std::printf("  cells=%zu  fill %zu VMs   churn %8.0f pl/s aggregate   (spillover %llu)\n",
                run.cells, run.fill_placed, run.churn_pps,
                static_cast<unsigned long long>(run.spillover));
  }
  const double base = runs.front().churn_pps;
  for (const CellsRun& run : runs) {
    if (run.cells > 1 && base > 0) {
      std::printf("  speedup %zu cells over 1: %.2fx\n", run.cells, run.churn_pps / base);
    }
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path, std::ios::trunc);
    if (!os.is_open()) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    os << "{\n  \"benchmark\": \"cells_churn\",\n  \"catalog\": \"ec2_sim\",\n"
       << "  \"fleet_pms\": " << fleet << ",\n  \"drivers\": " << drivers
       << ",\n  \"churn_pairs\": " << churn_pairs
       << ",\n  \"hardware_threads\": " << hardware_threads << ",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const CellsRun& run = runs[i];
      os << "    {\"cells\": " << run.cells << ", \"fill_placements\": " << run.fill_placed
         << ", \"aggregate_churn_placements_per_sec\": " << run.churn_pps
         << ", \"spillover\": " << run.spillover
         << ", \"speedup_over_one_cell\": " << (base > 0 ? run.churn_pps / base : 0.0)
         << "}" << (i + 1 < runs.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
