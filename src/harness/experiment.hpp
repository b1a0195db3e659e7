// Repeated-run EC2 simulation experiments (paper §VI-A: "We repeatedly
// carried out each experiment ... and reported the results" as median with
// 1st/99th percentile error bars).
//
// One Ec2Experiment owns the catalog and the (expensive, shared) score
// tables; run() executes N independent seeded repetitions of one
// algorithm — in parallel, since repetitions share nothing mutable — and
// returns the per-run metrics plus order statistics.
#pragma once

#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "core/catalog_graphs.hpp"
#include "placement/algorithm_factory.hpp"
#include "sim/simulator.hpp"

namespace prvm {

enum class TraceKind { kPlanetLab, kGoogleCluster };

const char* to_string(TraceKind kind);

struct Ec2ExperimentConfig {
  std::size_t vm_count = 1000;
  std::size_t repetitions = 5;
  std::uint64_t seed = 42;
  TraceKind trace = TraceKind::kPlanetLab;
  SimulationOptions sim;
  double cpu_alloc_factor = 1.0;  ///< see Catalog::ec2_sim_catalog
  /// VM-type mix weights (parallel to catalog VM types); empty = the
  /// compute-heavy default_vm_mix().
  std::vector<double> vm_mix;
  /// PM fleet size; 0 = auto (2x vm_count, alternating M3/C3 — always ample).
  std::size_t fleet_size = 0;
  unsigned threads = 0;  ///< parallel repetitions; 0 = hardware concurrency
  /// Reuse per-(config, algorithm) run metrics across bench binaries via
  /// the score-table cache directory. Results are deterministic in the
  /// config, so this is safe; delete the cache directory to force reruns.
  bool cache_results = true;
  /// Directory for the score-table images and the result cache. nullopt resolves to
  /// default_cache_dir(): $PRVM_CACHE_DIR when set, else ".prvm-cache"
  /// under the current directory. Point every consumer (benches, the
  /// placement daemon, CI) at one directory via PRVM_CACHE_DIR so the
  /// expensive EC2 score tables are built exactly once and reused —
  /// daemon startup then skips straight to serving.
  std::optional<std::filesystem::path> cache_dir;
};

struct Ec2ExperimentResult {
  AlgorithmKind algorithm;
  std::vector<SimMetrics> runs;

  /// Summary of one metric across runs.
  Summary summarize(const std::function<double(const SimMetrics&)>& metric) const;

  Summary pms_used() const;
  Summary energy_kwh() const;
  Summary migrations() const;
  Summary slo_percent() const;
};

class Ec2Experiment {
 public:
  explicit Ec2Experiment(Ec2ExperimentConfig config);

  const Ec2ExperimentConfig& config() const { return config_; }
  const Catalog& catalog() const { return catalog_; }
  std::shared_ptr<const ScoreTableSet> tables() const { return tables_; }

  /// Runs all repetitions of one algorithm. Deterministic in (config, kind).
  Ec2ExperimentResult run(AlgorithmKind kind) const;

 private:
  SimMetrics run_once(AlgorithmKind kind, std::size_t repetition) const;

  Ec2ExperimentConfig config_;
  Catalog catalog_;
  std::shared_ptr<const ScoreTableSet> tables_;
};

}  // namespace prvm
