#include "profile/permutation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"

namespace prvm {
namespace {

// Reference enumerator: every injection of items into dims, no pruning,
// deduplicated only by the resulting canonical usage vector.
void brute_force_rec(std::span<const int> items, int capacity, std::vector<int>& usage,
                     std::vector<bool>& used, std::size_t t,
                     std::set<std::vector<int>>& out) {
  if (t == items.size()) {
    std::vector<int> canon = usage;
    std::sort(canon.begin(), canon.end(), std::greater<int>());
    out.insert(canon);
    return;
  }
  for (std::size_t d = 0; d < usage.size(); ++d) {
    if (used[d] || usage[d] + items[t] > capacity) continue;
    used[d] = true;
    usage[d] += items[t];
    brute_force_rec(items, capacity, usage, used, t + 1, out);
    usage[d] -= items[t];
    used[d] = false;
  }
}

std::set<std::vector<int>> brute_force(std::vector<int> usage, int capacity,
                                       std::vector<int> items) {
  std::set<std::vector<int>> out;
  std::vector<bool> used(usage.size(), false);
  std::sort(items.begin(), items.end(), std::greater<int>());
  brute_force_rec(items, capacity, usage, used, 0, out);
  return out;
}

std::set<std::vector<int>> outcomes_of(const std::vector<GroupPlacement>& placements) {
  std::set<std::vector<int>> out;
  for (const GroupPlacement& p : placements) {
    std::vector<int> canon = p.result_usage;
    std::sort(canon.begin(), canon.end(), std::greater<int>());
    out.insert(canon);
  }
  return out;
}

TEST(GroupPlacements, PaperExamplePermutations) {
  // Empty [0,0,0,0] capacity 4, VM [1,1]: exactly one canonical outcome
  // ([1,1,0,0]) even though there are C(4,2)=6 raw permutations.
  const std::vector<int> usage{0, 0, 0, 0};
  const std::vector<int> items{1, 1};
  const auto placements = enumerate_group_placements(usage, 4, items);
  ASSERT_EQ(placements.size(), 1u);
  std::vector<int> canon = placements[0].result_usage;
  std::sort(canon.begin(), canon.end(), std::greater<int>());
  EXPECT_EQ(canon, (std::vector<int>{1, 1, 0, 0}));
}

TEST(GroupPlacements, DistinctOutcomesOnUnevenUsage) {
  // Usage [2,1,0,0], cap 4, item {1}: outcomes [3,1,0,0], [2,2,0,0],
  // [2,1,1,0] — three distinct canonical results.
  const auto placements = enumerate_group_placements(std::vector<int>{2, 1, 0, 0}, 4,
                                                     std::vector<int>{1});
  EXPECT_EQ(placements.size(), 3u);
}

TEST(GroupPlacements, EmptyItemsYieldIdentity) {
  const auto placements =
      enumerate_group_placements(std::vector<int>{1, 2}, 4, std::vector<int>{});
  ASSERT_EQ(placements.size(), 1u);
  EXPECT_TRUE(placements[0].assignments.empty());
  EXPECT_EQ(placements[0].result_usage, (std::vector<int>{1, 2}));
}

TEST(GroupPlacements, MoreItemsThanDimsIsInfeasible) {
  EXPECT_TRUE(enumerate_group_placements(std::vector<int>{0, 0}, 4,
                                         std::vector<int>{1, 1, 1})
                  .empty());
}

TEST(GroupPlacements, CapacityBlocks) {
  EXPECT_TRUE(
      enumerate_group_placements(std::vector<int>{4, 4}, 4, std::vector<int>{1}).empty());
  EXPECT_EQ(
      enumerate_group_placements(std::vector<int>{4, 3}, 4, std::vector<int>{1}).size(),
      1u);
}

TEST(GroupPlacements, ItemsMustBeSortedDescending) {
  EXPECT_THROW(
      enumerate_group_placements(std::vector<int>{0, 0}, 4, std::vector<int>{1, 2}),
      std::invalid_argument);
}

TEST(GroupPlacements, AssignmentsAreConsistentWithResult) {
  const std::vector<int> usage{3, 1, 0, 2};
  const auto placements =
      enumerate_group_placements(usage, 4, std::vector<int>{2, 1});
  ASSERT_FALSE(placements.empty());
  for (const GroupPlacement& p : placements) {
    std::vector<int> replay = usage;
    std::set<int> dims;
    for (auto [dim, amount] : p.assignments) {
      EXPECT_TRUE(dims.insert(dim).second) << "anti-collocation violated";
      replay[static_cast<std::size_t>(dim)] += amount;
      EXPECT_LE(replay[static_cast<std::size_t>(dim)], 4);
    }
    EXPECT_EQ(replay, p.result_usage);
  }
}

TEST(GroupPlacements, MatchesBruteForceOnRandomInstances) {
  Rng rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    const int dims = rng.uniform_int(1, 6);
    const int capacity = rng.uniform_int(1, 5);
    std::vector<int> usage;
    for (int d = 0; d < dims; ++d) usage.push_back(rng.uniform_int(0, capacity));
    const int n_items = rng.uniform_int(1, std::min(dims, 4));
    std::vector<int> items;
    for (int i = 0; i < n_items; ++i) items.push_back(rng.uniform_int(1, capacity));
    std::sort(items.begin(), items.end(), std::greater<int>());

    const auto fast = outcomes_of(enumerate_group_placements(usage, capacity, items));
    const auto slow = brute_force(usage, capacity, items);
    EXPECT_EQ(fast, slow) << "dims=" << dims << " cap=" << capacity;
  }
}

TEST(QuantizedDemandValidation, CatchesMalformedDemands) {
  const ProfileShape shape({DimensionGroup{ResourceKind::kCpu, 4, 4}});
  QuantizedDemand wrong_groups{{{1}, {1}}};
  EXPECT_THROW(wrong_groups.validate(shape), std::invalid_argument);
  QuantizedDemand too_many_items{{{1, 1, 1, 1, 1}}};
  EXPECT_THROW(too_many_items.validate(shape), std::invalid_argument);
  QuantizedDemand unsorted{{{1, 2}}};
  EXPECT_THROW(unsorted.validate(shape), std::invalid_argument);
  QuantizedDemand zero_item{{{0}}};
  EXPECT_THROW(zero_item.validate(shape), std::invalid_argument);
  QuantizedDemand oversized{{{5}}};
  EXPECT_THROW(oversized.validate(shape), std::invalid_argument);
  QuantizedDemand ok{{{2, 1}}};
  EXPECT_NO_THROW(ok.validate(shape));
  EXPECT_EQ(ok.total(), 3);
  EXPECT_EQ(ok.describe(), "{2,1}");
}

TEST(EnumeratePlacements, CombinesGroupsCartesian) {
  const ProfileShape shape({DimensionGroup{ResourceKind::kCpu, 2, 4},
                            DimensionGroup{ResourceKind::kDisk, 2, 4}});
  // CPU usage [1,0] with item {1}: 2 outcomes; disk usage [0,0] with {1}: 1
  // outcome -> 2 combined placements.
  const Profile current = Profile::from_levels(shape, {1, 0, 0, 0});
  const QuantizedDemand demand{{{1}, {1}}};
  const auto placements = enumerate_placements(shape, current, demand);
  EXPECT_EQ(placements.size(), 2u);
  for (const auto& p : placements) {
    EXPECT_EQ(p.result.total_usage(), current.total_usage() + demand.total());
  }
}

TEST(EnumeratePlacements, WorksOnNonCanonicalCurrent) {
  const ProfileShape shape({DimensionGroup{ResourceKind::kCpu, 3, 4}});
  const Profile current = Profile::from_levels(shape, {0, 3, 1});  // not canonical
  const QuantizedDemand demand{{{2}}};
  const auto placements = enumerate_placements(shape, current, demand);
  // Outcomes: add 2 to dim of usage 0, 1 (3+2 > 4 blocked) -> canonical
  // {3,2,1} and {3,3,0}... adding to usage1: [0,3,3] -> {3,3,0}; usage0:
  // [2,3,1] -> {3,2,1}.
  EXPECT_EQ(placements.size(), 2u);
}

TEST(EnumerateSuccessorKeys, DeduplicatesAcrossPermutations) {
  const ProfileShape shape({DimensionGroup{ResourceKind::kCpu, 4, 4}});
  const QuantizedDemand demand{{{1, 1, 1, 1}}};
  std::vector<ProfileKey> keys;
  enumerate_successor_keys(shape, Profile::zero(shape).pack(shape), demand, keys);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(Profile::unpack(shape, keys[0]).describe(), "[1,1,1,1]");
}

TEST(DemandFits, AgreesWithEnumerationOnRandomInstances) {
  Rng rng(777);
  for (int trial = 0; trial < 300; ++trial) {
    const int dims = rng.uniform_int(1, 5);
    const int capacity = rng.uniform_int(1, 5);
    const ProfileShape shape({DimensionGroup{ResourceKind::kCpu, dims, capacity}});
    std::vector<int> usage;
    for (int d = 0; d < dims; ++d) usage.push_back(rng.uniform_int(0, capacity));
    // Canonicalize so from_levels order matches demand_fits expectations.
    const Profile current = Profile::from_levels(shape, usage);
    const int n_items = rng.uniform_int(1, dims);
    std::vector<int> items;
    for (int i = 0; i < n_items; ++i) items.push_back(rng.uniform_int(1, capacity));
    std::sort(items.begin(), items.end(), std::greater<int>());
    const QuantizedDemand demand{{items}};

    const bool fits = demand_fits(shape, current.levels(), demand);
    const bool enumerable = !enumerate_placements(shape, current, demand).empty();
    EXPECT_EQ(fits, enumerable) << "trial " << trial;
  }
}

}  // namespace
}  // namespace prvm
