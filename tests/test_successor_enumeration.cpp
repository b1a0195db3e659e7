// Differential test of the allocation-free successor enumerator, and of the
// per-group memo the profile graph reads it through, against the map-based
// enumerator they replaced.
//
// The score table keeps the *first* successor with the top score, so the
// enumeration order decides placements: they must return identical keys in
// identical order, not just the same set.
#include <algorithm>
#include <unordered_set>

#include "cluster/catalog.hpp"
#include "common/rng.hpp"
#include "core/profile_graph.hpp"
#include "core/score_table.hpp"
#include "profile/permutation.hpp"

#include <gtest/gtest.h>

namespace prvm {
namespace {

// The former enumerate_successor_keys: every placement enumerate_placements
// produces (per group, distinct canonical outcomes in std::map order; groups
// combined mixed-radix with group 0 fastest), canonicalized, packed, first
// occurrences kept.
std::vector<ProfileKey> reference_successor_keys(const ProfileShape& shape,
                                                 const Profile& canonical_current,
                                                 const QuantizedDemand& demand) {
  auto placements = enumerate_placements(shape, canonical_current, demand);
  std::unordered_set<ProfileKey> seen;
  std::vector<ProfileKey> keys;
  keys.reserve(placements.size());
  for (const DemandPlacement& p : placements) {
    const ProfileKey key = p.result.canonical(shape).pack(shape);
    if (seen.insert(key).second) keys.push_back(key);
  }
  return keys;
}

std::vector<ProfileKey> successor_keys(const ProfileShape& shape, const Profile& current,
                                       const QuantizedDemand& demand) {
  std::vector<ProfileKey> keys;
  enumerate_successor_keys(shape, current.pack(shape), demand, keys);
  return keys;
}

struct Instance {
  ProfileShape shape;
  Profile current;
  QuantizedDemand demand;
};

// A random canonical profile and a valid demand on a shape of 1-3 groups.
// Every fifth instance uses capacity-1 groups, every seventh a full profile;
// a group takes as many items as it has dimensions, or none, a quarter of
// the time each.
Instance random_instance(Rng& rng, int trial) {
  const int groups = rng.uniform_int(1, 3);
  std::vector<DimensionGroup> dims;
  for (int g = 0; g < groups; ++g) {
    const int capacity = trial % 5 == 0 ? 1 : rng.uniform_int(1, 7);
    dims.push_back(DimensionGroup{ResourceKind::kCpu, rng.uniform_int(1, 6), capacity});
  }
  const ProfileShape shape(dims);
  std::vector<int> levels;
  QuantizedDemand demand;
  for (const DimensionGroup& g : dims) {
    std::vector<int> group_levels;
    for (int i = 0; i < g.count; ++i) {
      group_levels.push_back(trial % 7 == 0 ? g.capacity : rng.uniform_int(0, g.capacity));
    }
    std::sort(group_levels.begin(), group_levels.end(), std::greater<int>());
    levels.insert(levels.end(), group_levels.begin(), group_levels.end());

    const int mode = rng.uniform_int(0, 3);
    const int n_items = mode == 0 ? 0 : mode == 1 ? g.count : rng.uniform_int(1, g.count);
    std::vector<int> items;
    for (int i = 0; i < n_items; ++i) items.push_back(rng.uniform_int(1, g.capacity));
    std::sort(items.begin(), items.end(), std::greater<int>());
    demand.group_items.push_back(std::move(items));
  }
  Profile current = Profile::from_levels(shape, std::move(levels));
  return Instance{shape, std::move(current), std::move(demand)};
}

TEST(SuccessorEnumeration, MatchesReferenceOnRandomShapes) {
  Rng rng(20180702);
  std::size_t nonempty = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const Instance in = random_instance(rng, trial);
    const auto expected = reference_successor_keys(in.shape, in.current, in.demand);
    ASSERT_EQ(successor_keys(in.shape, in.current, in.demand), expected)
        << "trial " << trial << ": " << in.shape.describe() << " at "
        << in.current.describe() << " + " << in.demand.describe();
    nonempty += expected.empty() ? 0 : 1;
  }
  // The generator must exercise both feasible and infeasible demands.
  EXPECT_GT(nonempty, 500u);
  EXPECT_LT(nonempty, 3000u);
}

TEST(SuccessorEnumeration, AppendsToTheCallersBuffer) {
  const ProfileShape shape({DimensionGroup{ResourceKind::kCpu, 4, 4},
                            DimensionGroup{ResourceKind::kMemory, 1, 8}});
  const QuantizedDemand demand{{{2, 1}, {3}}};
  const Profile current = Profile::from_levels(shape, {3, 1, 1, 0, 2});
  std::vector<ProfileKey> keys = {42};
  enumerate_successor_keys(shape, current.pack(shape), demand, keys);
  const auto expected = reference_successor_keys(shape, current, demand);
  ASSERT_EQ(keys.size(), expected.size() + 1);
  EXPECT_EQ(keys[0], 42u);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), keys.begin() + 1));
}

TEST(SuccessorEnumeration, MoreOutcomesThanTheStackBufferHolds) {
  // 16 cores at 8 usage values, 4 distinct items: thousands of distinct
  // outcomes in one group, past the enumerator's stack buffer.
  const ProfileShape shape({DimensionGroup{ResourceKind::kCpu, 16, 15}});
  const Profile current =
      Profile::from_levels(shape, {7, 7, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 0, 0});
  const QuantizedDemand demand{{{8, 4, 2, 1}}};
  const auto keys = successor_keys(shape, current, demand);
  EXPECT_GT(keys.size(), 1024u);
  EXPECT_EQ(keys, reference_successor_keys(shape, current, demand));
  // The memo's fill takes the same fallback.
  SuccessorMemo memo(shape);
  memo.fill(current.pack(shape), std::vector<QuantizedDemand>{demand});
  std::vector<ProfileKey> memo_keys;
  memo.append_successors(current.pack(shape), 0, memo_keys);
  EXPECT_EQ(memo_keys, keys);
}

TEST(SuccessorEnumeration, RejectsNonCanonicalKeys) {
  const ProfileShape shape({DimensionGroup{ResourceKind::kCpu, 2, 4}});
  // Levels [1, 3] in dimension order: not sorted descending.
  const ProfileKey key = ProfileKey{1} | (ProfileKey{3} << shape.group_bits(0));
  std::vector<ProfileKey> keys;
  EXPECT_THROW(enumerate_successor_keys(shape, key, QuantizedDemand{{{1}}}, keys),
               std::invalid_argument);
}

// The EC2 PM and VM types (three groups: cores, memory, disks) with memory
// quantized to 4 levels instead of 16, which keeps the reference fast.
TEST(SuccessorEnumeration, MatchesReferenceOnEveryNodeOfCoarseEc2Graphs) {
  QuantizationConfig quantization;
  quantization.mem_levels = 4;
  const Catalog catalog = ec2_catalog(quantization);
  std::size_t pairs = 0;
  for (std::size_t p = 0; p < catalog.pm_types().size(); ++p) {
    const ProfileGraph graph(catalog.shape(p), catalog.fitting_demands(p).demands);
    std::vector<ProfileKey> keys;
    for (NodeId u = 0; u < graph.node_count(); ++u) {
      const Profile current = graph.profile_of(u);
      for (const QuantizedDemand& demand : graph.demands()) {
        keys.clear();
        enumerate_successor_keys(graph.shape(), graph.key_of(u), demand, keys);
        ASSERT_EQ(keys, reference_successor_keys(graph.shape(), current, demand))
            << "PM type " << p << " node " << current.describe() << " + " << demand.describe();
        ++pairs;
      }
    }
  }
  EXPECT_GT(pairs, 50000u);
}

// A random canonical profile of `shape`.
Profile random_profile(Rng& rng, const ProfileShape& shape) {
  std::vector<int> levels;
  for (const DimensionGroup& g : shape.groups()) {
    std::vector<int> group_levels(static_cast<std::size_t>(g.count));
    for (int& level : group_levels) level = rng.uniform_int(0, g.capacity);
    std::sort(group_levels.begin(), group_levels.end(), std::greater<int>());
    levels.insert(levels.end(), group_levels.begin(), group_levels.end());
  }
  return Profile::from_levels(shape, std::move(levels));
}

// A second valid demand for an instance's shape, drawn like the first.
QuantizedDemand random_demand(Rng& rng, const ProfileShape& shape) {
  QuantizedDemand demand;
  for (const DimensionGroup& g : shape.groups()) {
    std::vector<int> items(static_cast<std::size_t>(rng.uniform_int(0, g.count)));
    for (int& item : items) item = rng.uniform_int(1, g.capacity);
    std::sort(items.begin(), items.end(), std::greater<int>());
    demand.group_items.push_back(std::move(items));
  }
  return demand;
}

TEST(SuccessorEnumeration, MemoMatchesReferenceOnRandomShapes) {
  // One memo per shape, filled profile by profile as a graph build would:
  // later profiles meet group states earlier ones entered, under demands
  // that share some groups' items and not others'.
  Rng rng(20181010);
  std::size_t nonempty = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const Instance first = random_instance(rng, trial);
    std::vector<QuantizedDemand> demands = {first.demand, random_demand(rng, first.shape)};
    demands.push_back(demands[rng.uniform_int(0, 1)]);  // a VM type listed twice
    SuccessorMemo memo(first.shape);
    for (int profile = 0; profile < 5; ++profile) {
      const Profile current = profile == 0 ? first.current : random_profile(rng, first.shape);
      const ProfileKey key = current.pack(first.shape);
      memo.fill(key, demands);
      for (std::size_t t = 0; t < demands.size(); ++t) {
        std::vector<ProfileKey> keys;
        memo.append_successors(key, t, keys);
        const auto expected = reference_successor_keys(first.shape, current, demands[t]);
        ASSERT_EQ(keys, expected) << "trial " << trial << ": " << first.shape.describe()
                                  << " at " << current.describe() << " + "
                                  << demands[t].describe();
        nonempty += expected.empty() ? 0 : 1;
      }
    }
  }
  EXPECT_GT(nonempty, 500u);
}

TEST(SuccessorEnumeration, MemoKeepsVmTypesThatReachOneSuccessorApart) {
  // Two VM types, {2} and {1,1}, on two cores of capacity 2: from [0,0]
  // they part ([2,0] against [1,1]), from [1,0] both reach [2,1]. The memo
  // keys outcomes by VM type as well as by group state, so each type keeps
  // its own list where they part, and both lists hold the shared successor.
  const ProfileShape shape({DimensionGroup{ResourceKind::kCpu, 2, 2}});
  const std::vector<QuantizedDemand> demands = {QuantizedDemand{{{2}}},
                                                QuantizedDemand{{{1, 1}}}};
  SuccessorMemo memo(shape);
  const auto pack = [&](std::vector<int> levels) {
    return Profile::from_levels(shape, std::move(levels)).pack(shape);
  };
  for (const auto& levels : {std::vector<int>{0, 0}, {1, 0}, {1, 1}}) {
    const ProfileKey key = pack(levels);
    memo.fill(key, demands);
    for (std::size_t t = 0; t < demands.size(); ++t) {
      std::vector<ProfileKey> keys;
      memo.append_successors(key, t, keys);
      std::vector<ProfileKey> direct;
      enumerate_successor_keys(shape, key, demands[t], direct);
      EXPECT_EQ(keys, direct) << "type " << t << " at " << levels[0] << "," << levels[1];
    }
  }
  std::vector<ProfileKey> big, small;
  memo.append_successors(pack({0, 0}), 0, big);
  memo.append_successors(pack({0, 0}), 1, small);
  EXPECT_EQ(big, std::vector<ProfileKey>{pack({2, 0})});
  EXPECT_EQ(small, std::vector<ProfileKey>{pack({1, 1})});
  // From [1,0] both types reach [2,1]: the same successor, twice.
  std::vector<ProfileKey> both;
  memo.append_successors(pack({1, 0}), 0, both);
  memo.append_successors(pack({1, 0}), 1, both);
  EXPECT_EQ(both, (std::vector<ProfileKey>{pack({2, 1}), pack({2, 1})}));
}

TEST(SuccessorEnumeration, MemoRejectsNonCanonicalKeysAndKeepsNothing) {
  const ProfileShape shape({DimensionGroup{ResourceKind::kCpu, 2, 4},
                            DimensionGroup{ResourceKind::kMemory, 1, 8}});
  const std::vector<QuantizedDemand> demands = {QuantizedDemand{{{1}, {2}}}};
  const int bits = shape.group_bits(0);
  const auto key = [&](ProfileKey core0, ProfileKey core1, ProfileKey memory) {
    return core0 | (core1 << bits) | (memory << (2 * bits));
  };
  SuccessorMemo memo(shape);
  std::vector<ProfileKey> keys;
  // Cores [1,3] are not descending; memory 9 is past its capacity of 8,
  // after cores [3,1] that are valid and new. Every call throws, and none
  // enumerates the valid group first.
  for (const ProfileKey bad : {key(1, 3, 5), key(3, 1, 9), ProfileKey{1} << shape.key_bits()}) {
    for (int call = 0; call < 2; ++call) {
      EXPECT_THROW(memo.fill(bad, demands), std::invalid_argument);
      EXPECT_THROW(memo.append_successors(bad, 0, keys), std::invalid_argument);
    }
  }
  EXPECT_EQ(memo.group_runs(), 0u);
  EXPECT_TRUE(keys.empty());

  const ProfileKey good = key(3, 1, 5);
  memo.fill(good, demands);
  EXPECT_EQ(memo.group_runs(), 2u);
  memo.append_successors(good, 0, keys);
  std::vector<ProfileKey> direct;
  enumerate_successor_keys(shape, good, demands[0], direct);
  EXPECT_EQ(keys, direct);
}

// A cold build of the EC2 tables: the graph reads every (profile, VM type)
// pair's successors from its memo, so the per-group DFS runs once per
// distinct (VM type, group, group state) — 6,971 times, where enumerating
// each pair afresh ran it 4,728,096 times — and the table build runs none.
TEST(SuccessorEnumeration, Ec2ColdBuildEnumeratesEachGroupStateOnce) {
  const Catalog catalog = ec2_sim_catalog();
  std::size_t runs = 0;
  std::size_t pairs = 0;
  for (std::size_t p = 0; p < catalog.pm_types().size(); ++p) {
    const ProfileGraph graph(catalog.shape(p), catalog.fitting_demands(p).demands);
    const std::size_t graph_runs = graph.group_enumerations();
    const ScoreTable table = ScoreTable::build(graph);
    EXPECT_EQ(graph.group_enumerations(), graph_runs) << "the table build enumerated";
    runs += graph_runs;
    pairs += graph.node_count() * graph.demands().size();
  }
  EXPECT_EQ(pairs * 3, 2'364'048u);
  EXPECT_EQ(runs, 6'971u);
}

}  // namespace
}  // namespace prvm
