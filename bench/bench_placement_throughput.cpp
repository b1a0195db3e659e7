// Placement-index throughput benchmark (the PR's acceptance gauge).
//
// Drives EC2-catalog fleets of 1k / 5k / 10k PMs through a fill phase (place
// VMs until the fleet saturates) and a sustained place/remove churn phase,
// for both PageRankVM engines: the bucketed placement index (default) and
// the legacy linear scan (use_index = false, Algorithm 2 as printed).
// Reports placements/sec, p50/p99/p999 single-placement latency off the
// shared obs::Histogram (same estimator as prvm_loadgen, <= 12.5% relative
// error), and the engine's own counters (score lookups — score-cache
// refills for the indexed engine — and rep-cache hits) from a per-run
// private registry, with the size of the engine's memo at the end of the run
// (profiles it holds and bytes it allocated).
//
// Usage: bench_placement_throughput [--json PATH]
//   --json PATH   additionally write machine-readable results to PATH
//   PRVM_FAST=1   shrink fleets and op counts for a smoke run
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/catalog.hpp"
#include "cluster/datacenter.hpp"
#include "common/rng.hpp"
#include "core/catalog_graphs.hpp"
#include "obs/metrics.hpp"
#include "placement/pagerank_vm.hpp"
#include "sim/simulator.hpp"

namespace prvm {
namespace {

using Clock = std::chrono::steady_clock;

struct EngineStats {
  std::size_t used_pms = 0;       ///< used PMs at the churn operating point
  std::size_t fill_placements = 0;
  double fill_pps = 0.0;          ///< placements/sec during the fill phase
  std::size_t churn_ops = 0;
  double churn_pps = 0.0;         ///< placements/sec during sustained churn
  double p50_us = 0.0;            ///< median single-placement latency
  double p99_us = 0.0;
  double p999_us = 0.0;
  std::uint64_t score_lookups = 0;   ///< best-successor table lookups (churn)
  std::uint64_t rep_cache_hits = 0;  ///< best-permutation cache hits (churn)
  std::uint64_t linear_scored = 0;   ///< PMs scored by the legacy scan (churn)
  std::int64_t memo_entries = 0;     ///< profiles in the engine's memo (end of run)
  std::int64_t memo_bytes = 0;       ///< bytes the memo allocated (end of run)
};

EngineStats run_engine(const Catalog& catalog,
                       const std::shared_ptr<const ScoreTableSet>& tables, std::size_t fleet,
                       std::size_t churn_ops, bool use_index) {
  Datacenter dc(catalog, mixed_pm_fleet(catalog, fleet));
  // A private registry per run: engine counters start at zero and are read
  // back without fishing this run's deltas out of the global registry.
  obs::Registry reg;
  PageRankVmOptions options;
  options.use_index = use_index;
  options.metrics = &reg;
  PageRankVm engine(tables, options);

  // Fill: place VMs until the fleet saturates (every PM used and the stream
  // starts bouncing) so churn below runs with used PMs ~= the fleet size.
  Rng rng(7);
  const std::vector<double> mix = default_vm_mix(catalog);
  EngineStats stats;
  std::vector<VmId> live;
  VmId next_id = 1;
  std::size_t rejected_streak = 0;
  const auto fill_start = Clock::now();
  while (rejected_streak < 32) {
    const std::vector<Vm> wave = weighted_vm_requests(rng, catalog, 256, mix);
    for (const Vm& vm : wave) {
      Vm request{next_id++, vm.type_index};
      if (engine.place(dc, request).has_value()) {
        live.push_back(request.id);
        ++stats.fill_placements;
        rejected_streak = 0;
      } else {
        ++rejected_streak;
      }
    }
  }
  const double fill_seconds = std::chrono::duration<double>(Clock::now() - fill_start).count();
  stats.fill_pps = static_cast<double>(stats.fill_placements) / fill_seconds;
  stats.used_pms = dc.used_count();

  // Counter baselines: report churn-phase deltas, not fill noise.
  const std::uint64_t base_lookups = reg.counter("prvm_engine_score_lookups_total").value();
  const std::uint64_t base_hits = reg.counter("prvm_engine_rep_cache_hits_total").value();
  const std::uint64_t base_linear = reg.counter("prvm_engine_linear_scored_total").value();

  // Sustained churn at the operating point: remove one random VM, place one
  // fresh request. Only the place() call is timed.
  obs::Histogram& latency = reg.histogram("bench_place_latency_ns");
  const std::vector<Vm> stream = weighted_vm_requests(rng, catalog, churn_ops, mix);
  double churn_seconds = 0.0;
  for (std::size_t op = 0; op < churn_ops; ++op) {
    const std::size_t pick = rng.uniform_index(live.size());
    dc.remove(live[pick]);
    live[pick] = live.back();
    live.pop_back();

    Vm request{next_id++, stream[op].type_index};
    const auto start = Clock::now();
    const auto pm = engine.place(dc, request);
    const auto elapsed = Clock::now() - start;
    churn_seconds += std::chrono::duration<double>(elapsed).count();
    latency.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
    if (pm.has_value()) live.push_back(request.id);
  }
  stats.churn_ops = churn_ops;
  stats.churn_pps = static_cast<double>(churn_ops) / churn_seconds;
  const obs::HistogramSnapshot snap = latency.snapshot();
  stats.p50_us = snap.quantile(0.50) / 1e3;
  stats.p99_us = snap.quantile(0.99) / 1e3;
  stats.p999_us = snap.quantile(0.999) / 1e3;
  stats.score_lookups = reg.counter("prvm_engine_score_lookups_total").value() - base_lookups;
  stats.rep_cache_hits = reg.counter("prvm_engine_rep_cache_hits_total").value() - base_hits;
  stats.linear_scored = reg.counter("prvm_engine_linear_scored_total").value() - base_linear;
  stats.memo_entries = reg.gauge("prvm_engine_best_memo_entries").value();
  stats.memo_bytes = reg.gauge("prvm_engine_memo_bytes").value();
  return stats;
}

void print_engine(const char* name, const EngineStats& s) {
  std::printf(
      "  %-8s fill %8.0f pl/s (%zu VMs)   churn %9.0f pl/s   p50 %7.2f us   p99 %7.2f us   "
      "p999 %7.2f us\n",
      name, s.fill_pps, s.fill_placements, s.churn_pps, s.p50_us, s.p99_us, s.p999_us);
  std::printf("           churn counters: %llu score lookups, "
              "%llu rep-cache hits, %llu linear-scored; memo %lld profiles, %lld bytes\n",
              static_cast<unsigned long long>(s.score_lookups),
              static_cast<unsigned long long>(s.rep_cache_hits),
              static_cast<unsigned long long>(s.linear_scored),
              static_cast<long long>(s.memo_entries), static_cast<long long>(s.memo_bytes));
}

void json_engine(std::ostream& os, const char* name, const EngineStats& s) {
  os << "      \"" << name << "\": {\"fill_placements_per_sec\": " << s.fill_pps
     << ", \"fill_placements\": " << s.fill_placements
     << ", \"churn_placements_per_sec\": " << s.churn_pps
     << ", \"churn_ops\": " << s.churn_ops << ", \"p50_us\": " << s.p50_us
     << ", \"p99_us\": " << s.p99_us << ", \"p999_us\": " << s.p999_us
     << ", \"score_lookups\": " << s.score_lookups
     << ", \"rep_cache_hits\": " << s.rep_cache_hits
     << ", \"linear_scored\": " << s.linear_scored
     << ", \"prvm_engine_best_memo_entries\": " << s.memo_entries
     << ", \"prvm_engine_memo_bytes\": " << s.memo_bytes << "}";
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
  const std::vector<std::size_t> fleets =
      fast ? std::vector<std::size_t>{200, 500} : std::vector<std::size_t>{1000, 5000, 10000};
  const std::size_t churn_ops = fast ? 200 : 2000;

  std::cout << "==== PageRankVM placement throughput: bucketed index vs linear scan ====\n"
            << "(EC2 catalog, mixed fleet; fill to saturation, then " << churn_ops
            << " remove+place churn ops; PRVM_FAST=1 shrinks)\n\n";

  const Catalog catalog = ec2_sim_catalog();
  const auto tables = std::make_shared<const ScoreTableSet>(build_score_tables(catalog));

  struct Row {
    std::size_t fleet;
    std::size_t used;
    EngineStats indexed;
    EngineStats linear;
    double speedup;
  };
  std::vector<Row> rows;
  for (const std::size_t fleet : fleets) {
    std::cout << "fleet: " << fleet << " PMs\n";
    const EngineStats indexed = run_engine(catalog, tables, fleet, churn_ops, true);
    const EngineStats linear = run_engine(catalog, tables, fleet, churn_ops, false);
    print_engine("indexed", indexed);
    print_engine("linear", linear);
    const double speedup = indexed.churn_pps / linear.churn_pps;
    std::printf("  -> %zu used PMs, churn speedup %.1fx\n\n", indexed.used_pms, speedup);
    rows.push_back(Row{fleet, indexed.used_pms, indexed, linear, speedup});
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path, std::ios::trunc);
    if (!os.is_open()) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    os << "{\n  \"benchmark\": \"placement_throughput\",\n  \"catalog\": \"ec2_sim\",\n"
       << "  \"churn_ops\": " << churn_ops << ",\n  \"fleets\": [\n";
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const Row& row = rows[r];
      os << "    {\"pms\": " << row.fleet << ", \"used_pms\": " << row.used << ",\n";
      json_engine(os, "indexed", row.indexed);
      os << ",\n";
      json_engine(os, "linear", row.linear);
      os << ",\n      \"churn_speedup\": " << row.speedup << "}"
         << (r + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
