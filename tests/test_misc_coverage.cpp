// Odds and ends: error-checking macros, description helpers, and
// round-trip fuzz over randomly generated catalogs.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/score_table.hpp"
#include "placement/ffd_sum.hpp"
#include "sim/simulator.hpp"

namespace prvm {
namespace {

TEST(CheckMacros, RequireThrowsInvalidArgumentWithContext) {
  try {
    PRVM_REQUIRE(1 == 2, "the message");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("the message"), std::string::npos);
    EXPECT_NE(what.find("test_misc_coverage.cpp"), std::string::npos);
  }
}

TEST(CheckMacros, CheckThrowsLogicError) {
  EXPECT_THROW(PRVM_CHECK(false, "broken invariant"), std::logic_error);
  EXPECT_NO_THROW(PRVM_CHECK(true, ""));
  EXPECT_NO_THROW(PRVM_REQUIRE(true, ""));
}

TEST(Describe, EventAndMetricsStringsContainKeyFields) {
  SimEvent event{7, SimEventType::kVmMigrated, 3, 1, 5};
  const std::string text = event.describe();
  EXPECT_NE(text.find("epoch 7"), std::string::npos);
  EXPECT_NE(text.find("-> 5"), std::string::npos);

  SimMetrics metrics;
  metrics.vm_migrations = 12;
  metrics.energy_kwh = 3.5;
  const std::string m = metrics.describe();
  EXPECT_NE(m.find("migrations: 12"), std::string::npos);
  EXPECT_NE(m.find("kWh"), std::string::npos);
}

TEST(Describe, QuantizedDemandMultiGroup) {
  const QuantizedDemand demand{{{2, 1}, {}, {3}}};
  EXPECT_EQ(demand.describe(), "{2,1} {} {3}");
}

// Random-catalog fuzz: build a score table, write its image, map it, and
// verify the mapped table answers identically for every profile and demand.
TEST(ScoreTableFuzz, SaveLoadIdentityOnRandomCatalogs) {
  Rng rng(123321);
  for (int trial = 0; trial < 8; ++trial) {
    const int dims = rng.uniform_int(1, 3);
    const int capacity = rng.uniform_int(2, 4);
    ProfileShape shape({DimensionGroup{ResourceKind::kCpu, dims, capacity}});
    std::vector<QuantizedDemand> demands;
    const int n_types = rng.uniform_int(1, 3);
    for (int t = 0; t < n_types; ++t) {
      const int items = rng.uniform_int(1, dims);
      std::vector<int> sizes;
      for (int i = 0; i < items; ++i) sizes.push_back(rng.uniform_int(1, capacity));
      std::sort(sizes.begin(), sizes.end(), std::greater<int>());
      demands.push_back(QuantizedDemand{{sizes}});
    }
    const ProfileGraph graph(shape, demands);
    const ScoreTable table = ScoreTable::build(graph);
    const auto path = std::filesystem::temp_directory_path() /
                      ("prvm-fuzz-" + std::to_string(trial) + ".img");
    table.save_image(path);
    const ScoreTable loaded = ScoreTable::map_image(path, demands);
    std::filesystem::remove(path);
    for (NodeId u = 0; u < graph.node_count(); ++u) {
      ASSERT_EQ(loaded.find(graph.key_of(u)), table.find(graph.key_of(u)));
      for (std::size_t t = 0; t < demands.size(); ++t) {
        const auto a = table.best_after(graph.key_of(u), t);
        const auto b = loaded.best_after(graph.key_of(u), t);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a) ASSERT_EQ(a->successor, b->successor);
      }
    }
  }
}

TEST(FfdSum, PlaceAllReportsRejectedIds) {
  const Catalog catalog = geni_catalog();
  Datacenter dc(catalog, std::vector<std::size_t>(1, 0));
  FfdSum ffd;
  // Five 4-core jobs on a 16-slot instance: exactly one must be rejected.
  std::vector<Vm> vms;
  for (VmId id = 0; id < 5; ++id) vms.push_back(Vm{id, 1});
  const auto rejected = ffd.place_all(dc, vms);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_FALSE(dc.pm_of(rejected[0]).has_value());
  EXPECT_EQ(dc.vm_count(), 4u);
}

TEST(MixedFleet, AlternatesAllCatalogTypes) {
  const Catalog catalog = ec2_catalog();
  const auto fleet = mixed_pm_fleet(catalog, 7);
  EXPECT_EQ(fleet, (std::vector<std::size_t>{0, 1, 0, 1, 0, 1, 0}));
  EXPECT_THROW(mixed_pm_fleet(catalog, 0), std::invalid_argument);
}

TEST(ResourceKind, Names) {
  EXPECT_STREQ(to_string(ResourceKind::kCpu), "cpu");
  EXPECT_STREQ(to_string(ResourceKind::kMemory), "memory");
  EXPECT_STREQ(to_string(ResourceKind::kDisk), "disk");
}

}  // namespace
}  // namespace prvm
