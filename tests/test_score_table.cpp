#include "core/score_table.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace prvm {
namespace {

ProfileShape paper_shape() {
  return ProfileShape({DimensionGroup{ResourceKind::kCpu, 4, 4}});
}

ProfileGraph paper_graph() {
  std::vector<QuantizedDemand> demands = {QuantizedDemand{{{1, 1}}},
                                          QuantizedDemand{{{1, 1, 1, 1}}}};
  return ProfileGraph(paper_shape(), std::move(demands));
}

double score_of(const ScoreTable& table, const ProfileShape& shape, std::vector<int> levels) {
  const auto s =
      table.find(Profile::from_levels(shape, std::move(levels)).canonical(shape).pack(shape));
  EXPECT_TRUE(s.has_value());
  return s.value_or(-1.0);
}

TEST(ScoreTable, PaperQualityOrderingSection5A) {
  // §V-A: "[3,3,3,3] has higher quality than profile [4,4,2,2], because it
  // is easier for [3,3,3,3] to develop to the best profile".
  const ProfileGraph g = paper_graph();
  const ScoreTable table = ScoreTable::build(g);
  const ProfileShape shape = paper_shape();
  EXPECT_GT(score_of(table, shape, {3, 3, 3, 3}), score_of(table, shape, {4, 4, 2, 2}));
}

TEST(ScoreTable, BestProfileHasMaximumScore) {
  const ProfileGraph g = paper_graph();
  const ScoreTable table = ScoreTable::build(g);
  const ProfileShape shape = paper_shape();
  EXPECT_DOUBLE_EQ(score_of(table, shape, {4, 4, 4, 4}), 1.0);  // normalized max
}

TEST(ScoreTable, DeadEndsScoreLowerThanLiveSiblings) {
  const ProfileGraph g = paper_graph();
  const ScoreTable table = ScoreTable::build(g);
  const ProfileShape shape = paper_shape();
  // [4,4,4,0] (dead-end sink, util .75) must score below [4,4,2,2] (still
  // on a path to best at util .75... [4,4,2,2] util is also 12/16).
  EXPECT_LT(score_of(table, shape, {4, 4, 4, 0}), score_of(table, shape, {4, 4, 2, 2}));
}

TEST(ScoreTable, ForwardAsPrintedInvertsThePaperExample) {
  // Documents the Algorithm-1-as-printed inconsistency (see VoteDirection):
  // with forward votes, [4,4,2,2] outranks [3,3,3,3].
  ScoreTableOptions options;
  options.direction = VoteDirection::kForwardAsPrinted;
  const ProfileGraph g = paper_graph();
  const ScoreTable table = ScoreTable::build(g, options);
  const ProfileShape shape = paper_shape();
  EXPECT_GT(score_of(table, shape, {4, 4, 2, 2}), score_of(table, shape, {3, 3, 3, 3}));
}

TEST(ScoreTable, ScoresAreNonNegativeAndFinite) {
  const ProfileGraph g = paper_graph();
  const ScoreTable table = ScoreTable::build(g);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto s = table.find(g.key_of(u));
    ASSERT_TRUE(s.has_value());
    EXPECT_GE(*s, 0.0);
    EXPECT_LE(*s, 1.0 + 1e-6);
  }
  EXPECT_TRUE(table.pagerank_converged());
  EXPECT_GT(table.pagerank_iterations(), 1);
}

TEST(ScoreTable, FindOnUnknownProfile) {
  const ProfileGraph g = paper_graph();
  const ScoreTable table = ScoreTable::build(g);
  const ProfileShape shape = paper_shape();
  const ProfileKey odd = Profile::from_levels(shape, {4, 3, 3, 3}).pack(shape);
  EXPECT_FALSE(table.find(odd).has_value());
  EXPECT_THROW(table.score(odd), std::invalid_argument);
}

TEST(ScoreTable, BestAfterMatchesManualEnumeration) {
  const ProfileGraph g = paper_graph();
  const ScoreTable table = ScoreTable::build(g);
  const ProfileShape shape = paper_shape();
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (std::size_t t = 0; t < g.demands().size(); ++t) {
      double manual_best = -1.0;
      std::vector<ProfileKey> successors;
      enumerate_successor_keys(shape, g.key_of(u), g.demands()[t], successors);
      for (ProfileKey succ : successors) {
        manual_best = std::max(manual_best, table.score(succ));
      }
      const auto cached = table.best_after(g.key_of(u), t);
      if (manual_best < 0.0) {
        EXPECT_FALSE(cached.has_value());
      } else {
        ASSERT_TRUE(cached.has_value());
        EXPECT_NEAR(cached->score, manual_best, 1e-6);
        EXPECT_NEAR(table.score(cached->successor), manual_best, 1e-6);
      }
    }
  }
}

TEST(ScoreTable, BestAfterOnFullProfileIsEmpty) {
  const ProfileGraph g = paper_graph();
  const ScoreTable table = ScoreTable::build(g);
  const ProfileShape shape = paper_shape();
  const ProfileKey best = best_profile(shape).pack(shape);
  EXPECT_FALSE(table.best_after(best, 0).has_value());
  EXPECT_FALSE(table.best_after(best, 1).has_value());
  EXPECT_THROW(table.best_after(best, 2), std::invalid_argument);
}

TEST(ScoreTable, ReverseDirectionZeroesDeadEndCones) {
  // In kReverseToBest mode no backward walk from the best profile ever
  // reaches a profile whose forward cone misses the best profile, so such
  // profiles score (numerically) zero even before the BPRU discount.
  const ProfileGraph g = paper_graph();
  const ScoreTable table = ScoreTable::build(g);
  const ProfileShape shape = paper_shape();
  const ProfileKey dead_end = Profile::from_levels(shape, {4, 4, 4, 0}).pack(shape);
  EXPECT_DOUBLE_EQ(table.score(dead_end), 0.0);
}

TEST(ScoreTable, WithoutBpruDeadEndsRankHigherInForwardMode) {
  // BPRU (Algorithm 1 line 19) is what discounts dead ends under the
  // literal forward voting, where they otherwise accumulate rank.
  ScoreTableOptions with;
  with.direction = VoteDirection::kForwardAsPrinted;
  ScoreTableOptions without = with;
  without.apply_bpru = false;
  const ProfileGraph g = paper_graph();
  const ScoreTable table_with = ScoreTable::build(g, with);
  const ScoreTable table_without = ScoreTable::build(g, without);
  const ProfileShape shape = paper_shape();
  // [4,4,4,0]: a sink at utilization 0.75 -> BPRU multiplies its rank by
  // 0.75, so relative to the no-discount table it must drop.
  const ProfileKey dead_end = Profile::from_levels(shape, {4, 4, 4, 0}).pack(shape);
  const ProfileKey live = Profile::from_levels(shape, {4, 4, 2, 2}).pack(shape);
  const double ratio_with = table_with.score(dead_end) / table_with.score(live);
  const double ratio_without = table_without.score(dead_end) / table_without.score(live);
  EXPECT_LT(ratio_with, ratio_without);
}

TEST(ScoreTable, DigestDistinguishesInputs) {
  const ProfileShape shape = paper_shape();
  const std::vector<QuantizedDemand> demands = {QuantizedDemand{{{1, 1}}}};
  const std::vector<QuantizedDemand> other = {QuantizedDemand{{{2, 1}}}};
  ScoreTableOptions options;
  const std::string base = ScoreTable::digest(shape, demands, options);
  EXPECT_EQ(base, ScoreTable::digest(shape, demands, options));  // stable
  EXPECT_NE(base, ScoreTable::digest(shape, other, options));
  ScoreTableOptions changed = options;
  changed.pagerank.damping = 0.9;
  EXPECT_NE(base, ScoreTable::digest(shape, demands, changed));
  changed = options;
  changed.direction = VoteDirection::kForwardAsPrinted;
  EXPECT_NE(base, ScoreTable::digest(shape, demands, changed));
}

TEST(ScoreTable, SaveLoadRoundTrip) {
  const ProfileGraph g = paper_graph();
  const ScoreTable table = ScoreTable::build(g);
  const auto path = std::filesystem::temp_directory_path() / "prvm-scoretable-test.img";
  table.save_image(path);
  const ScoreTable loaded = ScoreTable::map_image(path, g.demands());
  std::filesystem::remove(path);  // the mapping outlives the name

  EXPECT_EQ(loaded.size(), table.size());
  EXPECT_EQ(loaded.demand_count(), table.demand_count());
  EXPECT_EQ(loaded.digest_string(), table.digest_string());
  EXPECT_TRUE(loaded.shape() == table.shape());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    EXPECT_EQ(loaded.find(g.key_of(u)), table.find(g.key_of(u)));
    for (std::size_t t = 0; t < table.demand_count(); ++t) {
      const auto a = table.best_after(g.key_of(u), t);
      const auto b = loaded.best_after(g.key_of(u), t);
      EXPECT_EQ(a.has_value(), b.has_value());
      if (a && b) {
        EXPECT_EQ(a->successor, b->successor);
        EXPECT_FLOAT_EQ(static_cast<float>(a->score), static_cast<float>(b->score));
      }
    }
  }
}

TEST(ScoreTable, IndependentBuildsWriteByteIdenticalImages) {
  // Two cores + memory: best entries with distinct scores.
  const ProfileShape shape({DimensionGroup{ResourceKind::kCpu, 4, 4},
                            DimensionGroup{ResourceKind::kMemory, 1, 8}});
  const std::vector<QuantizedDemand> demands = {QuantizedDemand{{{1}, {1}}},
                                                QuantizedDemand{{{2, 2}, {3}}}};
  const auto dir = std::filesystem::temp_directory_path();
  const auto first = dir / "prvm-scoretable-image-a.img";
  const auto second = dir / "prvm-scoretable-image-b.img";
  ScoreTable::build(ProfileGraph(shape, demands)).save_image(first);
  ScoreTable::build(ProfileGraph(shape, demands)).save_image(second);
  const auto bytes = [](const std::filesystem::path& path) {
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
  };
  const std::string a = bytes(first);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, bytes(second));
  std::filesystem::remove(first);
  std::filesystem::remove(second);
}

TEST(ScoreTable, LoadRejectsGarbage) {
  const auto path = std::filesystem::temp_directory_path() / "prvm-scoretable-garbage.img";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a score table", f);
    std::fclose(f);
  }
  EXPECT_THROW(ScoreTable::map_image(path, {}), std::invalid_argument);
  std::filesystem::remove(path);
  EXPECT_THROW(ScoreTable::map_image(path, {}), std::invalid_argument);  // missing file
}

}  // namespace
}  // namespace prvm
