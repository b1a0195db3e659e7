#include "core/profile_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "cluster/catalog.hpp"
#include "run_inline.hpp"

namespace prvm {
namespace {

// The paper's running example: capacity [4,4,4,4], VM set {[1,1],[1,1,1,1]}.
ProfileGraph paper_graph() {
  ProfileShape shape({DimensionGroup{ResourceKind::kCpu, 4, 4}});
  std::vector<QuantizedDemand> demands = {QuantizedDemand{{{1, 1}}},
                                          QuantizedDemand{{{1, 1, 1, 1}}}};
  return ProfileGraph(std::move(shape), std::move(demands));
}

TEST(ProfileGraph, PaperExampleNodeCount) {
  const ProfileGraph g = paper_graph();
  // Every canonical profile with even total usage that decomposes into
  // {[1,1],[1,1,1,1]} placements; established by inspection (and stable:
  // any change here signals a graph-construction change).
  EXPECT_EQ(g.node_count(), 33u);
  EXPECT_EQ(g.graph().edge_count(), 84u);
}

TEST(ProfileGraph, ZeroNodeIsFirst) {
  const ProfileGraph g = paper_graph();
  EXPECT_EQ(g.zero_node(), 0u);
  EXPECT_EQ(g.profile_of(0).total_usage(), 0);
  EXPECT_DOUBLE_EQ(g.utilization(0), 0.0);
}

TEST(ProfileGraph, BestProfileReachable) {
  const ProfileGraph g = paper_graph();
  const auto best = g.best_node();
  ASSERT_TRUE(best.has_value());
  EXPECT_TRUE(g.profile_of(*best).is_best(g.shape()));
  EXPECT_DOUBLE_EQ(g.utilization(*best), 1.0);
}

TEST(ProfileGraph, IsADag) {
  const ProfileGraph g = paper_graph();
  EXPECT_NO_THROW(topological_order(g.graph()));
}

TEST(ProfileGraph, EdgesIncreaseUsageByDemandTotals) {
  const ProfileGraph g = paper_graph();
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const int before = g.profile_of(u).total_usage();
    for (NodeId v : g.graph().successors(u)) {
      const int delta = g.profile_of(v).total_usage() - before;
      EXPECT_TRUE(delta == 2 || delta == 4) << "edge " << u << "->" << v;
    }
  }
}

TEST(ProfileGraph, EveryNonZeroNodeHasAPredecessor) {
  const ProfileGraph g = paper_graph();
  std::vector<bool> has_pred(g.node_count(), false);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (NodeId v : g.graph().successors(u)) has_pred[v] = true;
  }
  for (NodeId u = 1; u < g.node_count(); ++u) {
    EXPECT_TRUE(has_pred[u]) << g.profile_of(u).describe();
  }
}

TEST(ProfileGraph, SinksCannotAccommodateAnyVm) {
  const ProfileGraph g = paper_graph();
  const auto sinks = g.sink_nodes();
  EXPECT_FALSE(sinks.empty());
  for (NodeId s : sinks) {
    const Profile p = g.profile_of(s);
    for (const QuantizedDemand& d : g.demands()) {
      EXPECT_FALSE(demand_fits(g.shape(), p.levels(), d)) << p.describe();
    }
  }
  // The best profile is among the sinks.
  const auto best = g.best_node();
  ASSERT_TRUE(best.has_value());
  EXPECT_NE(std::find(sinks.begin(), sinks.end(), *best), sinks.end());
}

TEST(ProfileGraph, FindNodeOnlyFindsReachableProfiles) {
  const ProfileGraph g = paper_graph();
  const ProfileShape& shape = g.shape();
  // [4,3,3,3] has odd total usage 13: unreachable with even-sized VMs.
  const ProfileKey odd = Profile::from_levels(shape, {4, 3, 3, 3}).pack(shape);
  EXPECT_FALSE(g.find_node(odd).has_value());
  const ProfileKey even = Profile::from_levels(shape, {3, 3, 2, 2}).pack(shape);
  EXPECT_TRUE(g.find_node(even).has_value());
}

TEST(ProfileGraph, SuccessorsForDemandMatchEnumeration) {
  const ProfileGraph g = paper_graph();
  for (NodeId u = 0; u < g.node_count(); ++u) {
    std::set<NodeId> unioned;
    for (std::size_t t = 0; t < g.demands().size(); ++t) {
      std::vector<ProfileKey> keys;
      enumerate_successor_keys(g.shape(), g.key_of(u), g.demands()[t], keys);
      for (ProfileKey key : keys) unioned.insert(g.find_node(key).value());
    }
    const auto succ = g.graph().successors(u);
    EXPECT_EQ(unioned, std::set<NodeId>(succ.begin(), succ.end()));
  }
}

TEST(ProfileGraph, DistinctSuccessorProfilesNotEdgesPerPermutation) {
  // From zero, [1,1] has many permutations but exactly one distinct
  // successor profile; together with [1,1,1,1] the zero node has out 2.
  const ProfileGraph g = paper_graph();
  EXPECT_EQ(g.graph().out_degree(g.zero_node()), 2u);
}

TEST(ProfileGraph, MaxNodesGuard) {
  ProfileShape shape({DimensionGroup{ResourceKind::kCpu, 4, 4}});
  std::vector<QuantizedDemand> demands = {QuantizedDemand{{{1}}}};
  ProfileGraphOptions options;
  options.max_nodes = 3;
  EXPECT_THROW(ProfileGraph(shape, demands, options), std::invalid_argument);
}

TEST(ProfileGraph, RejectsEmptyOrZeroDemands) {
  ProfileShape shape({DimensionGroup{ResourceKind::kCpu, 2, 2}});
  EXPECT_THROW(ProfileGraph(shape, {}), std::invalid_argument);
  std::vector<QuantizedDemand> zero = {QuantizedDemand{{{}}}};
  EXPECT_THROW(ProfileGraph(shape, zero), std::invalid_argument);
}

TEST(ProfileGraph, MultiGroupShape) {
  // 2 cores cap 2 + memory cap 2; VM = 1 vCPU unit + 1 memory unit.
  ProfileShape shape({DimensionGroup{ResourceKind::kCpu, 2, 2},
                      DimensionGroup{ResourceKind::kMemory, 1, 2}});
  std::vector<QuantizedDemand> demands = {QuantizedDemand{{{1}, {1}}}};
  const ProfileGraph g(shape, demands);
  // Reachable profiles: cpu usage multisets with total == mem usage, mem<=2:
  // [0,0|0], [1,0|1], [1,1|2], [2,0|2] -> 4 nodes.
  EXPECT_EQ(g.node_count(), 4u);
  // Memory exhausts before CPU: sinks are the two usage-2 profiles.
  EXPECT_EQ(g.sink_nodes().size(), 2u);
  EXPECT_FALSE(g.best_node().has_value());  // [2,2|2] is not reachable
}

TEST(ProfileGraph, SingleVmTypeChain) {
  ProfileShape shape({DimensionGroup{ResourceKind::kCpu, 1, 4}});
  std::vector<QuantizedDemand> demands = {QuantizedDemand{{{1}}}};
  const ProfileGraph g(shape, demands);
  EXPECT_EQ(g.node_count(), 5u);  // 0..4
  EXPECT_EQ(g.graph().edge_count(), 4u);
  EXPECT_TRUE(g.best_node().has_value());
}

TEST(ProfileGraph, InlineBuildMatchesPooledCsr) {
  // The EC2 catalog's PM types: waves of up to ~870k successor keys, so the
  // pooled build interns every wave on all shards at once.
  const Catalog catalog = ec2_sim_catalog();
  for (std::size_t p = 0; p < catalog.pm_types().size(); ++p) {
    const ProfileGraph pooled(catalog.shape(p), catalog.fitting_demands(p).demands);
    std::optional<ProfileGraph> serial;
    run_inline([&] { serial.emplace(catalog.shape(p), catalog.fitting_demands(p).demands); });
    ASSERT_EQ(serial->node_count(), pooled.node_count());
    ASSERT_EQ(serial->graph().edge_count(), pooled.graph().edge_count());
    for (NodeId u = 0; u < pooled.node_count(); ++u) {
      ASSERT_EQ(serial->key_of(u), pooled.key_of(u));
      const auto a = serial->graph().successors(u);
      const auto b = pooled.graph().successors(u);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "row " << u;
      ASSERT_EQ(pooled.find_node(pooled.key_of(u)), u);
    }
  }
}

}  // namespace
}  // namespace prvm
