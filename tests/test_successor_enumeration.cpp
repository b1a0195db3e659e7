// Differential test of the allocation-free successor enumerator against the
// map-based one it replaced.
//
// The score table keeps the *first* successor with the top score, so the
// enumeration order decides placements: the two must return identical keys
// in identical order, not just the same set.
#include <algorithm>
#include <unordered_set>

#include "cluster/catalog.hpp"
#include "common/rng.hpp"
#include "core/profile_graph.hpp"
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

}  // namespace
}  // namespace prvm
