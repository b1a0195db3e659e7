// Parameterized property sweeps: the §IV constraints must hold for every
// algorithm, on every seed, across quantization granularities and VM mixes.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/catalog_graphs.hpp"
#include "placement/algorithm_factory.hpp"
#include "sim/simulator.hpp"

namespace prvm {
namespace {

struct SweepCase {
  AlgorithmKind kind;
  std::uint64_t seed;
  int cpu_levels;
};

class PlacementPropertySweep
    : public ::testing::TestWithParam<std::tuple<AlgorithmKind, int, int>> {};

// Builds a randomized catalog whose VM types always fit the PM type.
Catalog sweep_catalog(int cpu_levels, Rng& rng) {
  QuantizationConfig q;
  q.cpu_levels = cpu_levels;
  q.mem_levels = 8;
  std::vector<PmType> pms = {{"node", 4, static_cast<double>(cpu_levels), 8.0, 0, 0.0,
                              "E5-2670"}};
  std::vector<VmType> vms;
  const int n_types = rng.uniform_int(2, 4);
  for (int t = 0; t < n_types; ++t) {
    const int vcpus = rng.uniform_int(1, 4);
    const int levels = rng.uniform_int(1, cpu_levels);
    const double mem = rng.uniform_int(1, 4);
    vms.push_back(VmType{"t" + std::to_string(t), vcpus, static_cast<double>(levels), mem,
                         0, 0.0});
  }
  return Catalog(std::move(vms), std::move(pms), q);
}

void expect_constraints_hold(const Datacenter& dc, std::size_t placed_vms) {
  std::size_t total_placed = 0;
  for (PmIndex i = 0; i < dc.pm_count(); ++i) {
    const auto& pm = dc.pm(i);
    const ProfileShape& shape = dc.shape_of(i);
    total_placed += pm.vms.size();
    std::vector<int> replay(static_cast<std::size_t>(shape.total_dims()), 0);
    for (const auto& placed : pm.vms) {
      std::set<int> dims;
      for (auto [dim, amount] : placed.assignments) {
        // Constraint (4)/(9): one item of a VM per dimension.
        ASSERT_TRUE(dims.insert(dim).second);
        ASSERT_GT(amount, 0);
        replay[static_cast<std::size_t>(dim)] += amount;
      }
    }
    for (int d = 0; d < shape.total_dims(); ++d) {
      // Ledger consistency and constraint (5)/(6)/(10): capacity holds.
      ASSERT_EQ(replay[static_cast<std::size_t>(d)], pm.usage.level(d));
      ASSERT_LE(pm.usage.level(d), shape.dim_capacity(d));
    }
    // Canonical key cache in sync.
    ASSERT_EQ(pm.canonical_key, pm.usage.canonical(shape).pack(shape));
  }
  // Constraint (1): every placed VM on exactly one PM.
  ASSERT_EQ(total_placed, placed_vms);
  ASSERT_EQ(dc.vm_count(), placed_vms);
}

TEST_P(PlacementPropertySweep, ConstraintsHoldAfterPlacementAndChurn) {
  const auto [kind, seed, cpu_levels] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 1000003 + cpu_levels);
  const Catalog catalog = sweep_catalog(cpu_levels, rng);
  auto tables = std::make_shared<const ScoreTableSet>(
      build_score_tables(catalog, {}, std::nullopt));
  Datacenter dc(catalog, std::vector<std::size_t>(30, 0));
  auto algorithm = make_algorithm(kind, tables);

  // Batch placement.
  const std::size_t n = 25;
  std::vector<Vm> vms;
  for (std::size_t i = 0; i < n; ++i) {
    vms.push_back(Vm{static_cast<VmId>(i), rng.uniform_index(catalog.vm_types().size())});
  }
  const auto rejected = algorithm->place_all(dc, vms);
  expect_constraints_hold(dc, n - rejected.size());

  // Churn: random removals and re-placements.
  std::vector<VmId> placed;
  for (const Vm& vm : vms) {
    if (dc.pm_of(vm.id).has_value()) placed.push_back(vm.id);
  }
  for (int round = 0; round < 15 && !placed.empty(); ++round) {
    const std::size_t pick = rng.uniform_index(placed.size());
    const VmId id = placed[pick];
    const auto record = dc.remove(id);
    expect_constraints_hold(dc, dc.vm_count());
    const auto dest = algorithm->place(dc, record.vm);
    if (!dest.has_value()) {
      placed.erase(placed.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    expect_constraints_hold(dc, dc.vm_count());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlacementPropertySweep,
    ::testing::Combine(::testing::Values(AlgorithmKind::kPageRankVm, AlgorithmKind::kCompVm,
                                         AlgorithmKind::kFfdSum, AlgorithmKind::kFirstFit),
                       ::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(2, 4)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param)) + "_q" +
             std::to_string(std::get<2>(info.param));
    });

class ScoreTablePropertySweep : public ::testing::TestWithParam<int> {};

TEST_P(ScoreTablePropertySweep, TableInvariantsAcrossRandomCatalogs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 99);
  const Catalog catalog = sweep_catalog(4, rng);
  const ProfileShape& shape = catalog.shape(0);
  const auto& fitting = catalog.fitting_demands(0);
  const ProfileGraph graph(shape, fitting.demands);
  const ScoreTable table = ScoreTable::build(graph);

  // DAG, scores within [0, 1] after max-normalization, best_after agrees
  // with feasibility.
  EXPECT_NO_THROW(topological_order(graph.graph()));
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    const double s = table.score(graph.key_of(u));
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0 + 1e-6);
    const Profile p = graph.profile_of(u);
    for (std::size_t t = 0; t < fitting.demands.size(); ++t) {
      const bool fits = demand_fits(shape, p.levels(), fitting.demands[t]);
      EXPECT_EQ(table.best_after(graph.key_of(u), t).has_value(), fits);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScoreTablePropertySweep, ::testing::Range(0, 8));

class SimulationPropertySweep
    : public ::testing::TestWithParam<std::tuple<AlgorithmKind, int>> {};

TEST_P(SimulationPropertySweep, MetricsAreInternallyConsistent) {
  const auto [kind, seed] = GetParam();
  const Catalog catalog = geni_catalog();
  auto tables = std::make_shared<const ScoreTableSet>(
      build_score_tables(catalog, {}, std::nullopt));
  Rng rng(static_cast<std::uint64_t>(seed));
  Datacenter dc(catalog, std::vector<std::size_t>(15, 0));
  const auto vms = random_vm_requests(rng, catalog, 30);
  std::vector<std::size_t> binding = random_trace_binding(rng, vms.size(), 4);
  std::vector<UtilizationTrace> raw;
  for (int i = 0; i < 4; ++i) {
    std::vector<double> samples;
    for (int t = 0; t < 20; ++t) samples.push_back(rng.uniform(0.0, 1.0));
    raw.emplace_back(std::move(samples));
  }
  SimulationOptions options;
  options.epochs = 20;
  options.record_events = true;
  CloudSimulation sim(std::move(dc), vms, binding, TraceSet(std::move(raw)), options);
  auto algorithm = make_algorithm(kind, tables);
  auto policy = default_policy_for(kind, tables);
  const SimMetrics metrics = sim.run(*algorithm, *policy);

  EXPECT_LE(metrics.pms_used_initial, metrics.pms_used_max);
  EXPECT_GE(metrics.pms_used_ever, metrics.pms_used_max);
  EXPECT_EQ(metrics.vm_migrations, sim.events().count(SimEventType::kVmMigrated));
  EXPECT_EQ(metrics.failed_migrations, sim.events().count(SimEventType::kMigrationFailed));
  EXPECT_EQ(metrics.overload_events, sim.events().count(SimEventType::kPmOverloaded));
  EXPECT_EQ(metrics.rejected_vms, sim.events().count(SimEventType::kVmRejected));
  EXPECT_GE(metrics.slo_violation_percent, 0.0);
  EXPECT_LE(metrics.slo_violation_percent, 100.0);
  EXPECT_EQ(sim.datacenter().vm_count() + metrics.rejected_vms, vms.size());
  // The final ledger still satisfies every constraint.
  expect_constraints_hold(sim.datacenter(), sim.datacenter().vm_count());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimulationPropertySweep,
    ::testing::Combine(::testing::Values(AlgorithmKind::kPageRankVm, AlgorithmKind::kCompVm,
                                         AlgorithmKind::kFfdSum, AlgorithmKind::kFirstFit),
                       ::testing::Range(1, 5)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace prvm
