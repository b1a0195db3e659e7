#include "pagerank/pagerank.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "pagerank/graph.hpp"
#include "run_inline.hpp"

namespace prvm {
namespace {

TEST(Digraph, BuildAndQuery) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(2), 0u);
  const NodeId n = g.add_node();
  EXPECT_EQ(n, 3u);
}

TEST(Digraph, FinalizePreservesAdjacency) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 3);
  g.add_edge(2, 0);
  std::vector<std::vector<NodeId>> before;
  for (NodeId u = 0; u < 4; ++u) {
    auto s = g.successors(u);
    before.emplace_back(s.begin(), s.end());
  }
  g.finalize();
  EXPECT_TRUE(g.finalized());
  for (NodeId u = 0; u < 4; ++u) {
    auto s = g.successors(u);
    EXPECT_EQ(std::vector<NodeId>(s.begin(), s.end()), before[u]);
  }
  EXPECT_THROW(g.add_edge(0, 1), std::invalid_argument);
  EXPECT_THROW(g.add_node(), std::invalid_argument);
}

TEST(Digraph, EdgeValidation) {
  Digraph g(2);
  EXPECT_THROW(g.add_edge(0, 2), std::invalid_argument);
  EXPECT_THROW(g.successors(5), std::invalid_argument);
}

TEST(TopologicalOrder, LinearChain) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_EQ(topological_order(g), (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(TopologicalOrder, RespectsAllEdges) {
  Digraph g(6);
  g.add_edge(5, 2);
  g.add_edge(5, 0);
  g.add_edge(4, 0);
  g.add_edge(4, 1);
  g.add_edge(2, 3);
  g.add_edge(3, 1);
  const auto order = topological_order(g);
  std::vector<std::size_t> pos(6);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (NodeId u = 0; u < 6; ++u) {
    for (NodeId v : g.successors(u)) EXPECT_LT(pos[u], pos[v]);
  }
}

TEST(TopologicalOrder, DetectsCycle) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_THROW(topological_order(g), std::invalid_argument);
}

TEST(CountPaths, DiamondGraph) {
  // 0 -> {1,2} -> 3: two paths from 0 to 3.
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const auto counts = count_paths_to(g, 3);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);  // empty path
}

TEST(CountPaths, UnreachableNodesAreZero) {
  Digraph g(3);
  g.add_edge(0, 1);
  const auto counts = count_paths_to(g, 1);
  EXPECT_EQ(counts[2], 0u);
}

TEST(PageRank, UniformOnSymmetricCycleFreeGraph) {
  // Two disconnected nodes: rank must stay uniform.
  Digraph g(2);
  const auto result = compute_pagerank(g);
  EXPECT_TRUE(result.converged);
  EXPECT_DOUBLE_EQ(result.scores[0], 0.5);
  EXPECT_DOUBLE_EQ(result.scores[1], 0.5);
}

TEST(PageRank, SinkReceivesMoreThanSource) {
  Digraph g(2);
  g.add_edge(0, 1);
  const auto result = compute_pagerank(g);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.scores[1], result.scores[0]);
}

TEST(PageRank, ScoresSumToOneAndNonNegative) {
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  const auto result = compute_pagerank(g);
  double sum = 0.0;
  for (double s : result.scores) {
    EXPECT_GE(s, 0.0);
    sum += s;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PageRank, StarCenterAnalyticValue) {
  // n-1 leaves all pointing at node 0; no out-edges from 0 (dangling).
  // Algorithm 1 normalizes every iteration, so the fixed point satisfies
  // c = (b + (n-1) d l) / lambda, l = b / lambda with
  // lambda = n b + (n-1) d l, b = (1-d)/n. Eliminating l gives
  // lambda^2 - n b lambda - (n-1) d b = 0 and c/l = 1 + (n-1) d / lambda.
  const std::size_t n = 5;
  const double d = 0.85;
  Digraph g(n);
  for (NodeId u = 1; u < n; ++u) g.add_edge(u, 0);
  PageRankOptions options;
  options.damping = d;
  const auto result = compute_pagerank(g, options);
  ASSERT_TRUE(result.converged);
  const double b = (1.0 - d) / static_cast<double>(n);
  const double nb = static_cast<double>(n) * b;
  const double lambda =
      (nb + std::sqrt(nb * nb + 4.0 * (n - 1) * d * b)) / 2.0;
  const double expected_ratio = 1.0 + (n - 1) * d / lambda;
  EXPECT_NEAR(result.scores[0] / result.scores[1], expected_ratio, 1e-6);
}

TEST(PageRank, DampingZeroGivesTeleportOnly) {
  Digraph g(3);
  g.add_edge(0, 1);
  PageRankOptions options;
  options.damping = 0.0;
  const auto result = compute_pagerank(g, options);
  for (double s : result.scores) EXPECT_NEAR(s, 1.0 / 3.0, 1e-12);
}

TEST(PageRank, RespectsIterationBudget) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  PageRankOptions options;
  options.max_iterations = 1;
  options.epsilon = 1e-300;  // unreachable
  const auto result = compute_pagerank(g, options);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 1);
}

TEST(PageRank, PersonalizedTeleportConcentratesRank) {
  // Cycle 2 -> 1 -> 0 -> 2 (no dangling leak, so normalization is a no-op)
  // with teleport pinned at node 2: rank decays with distance from the
  // teleport node.
  Digraph g(3);
  g.add_edge(2, 1);
  g.add_edge(1, 0);
  g.add_edge(0, 2);
  std::vector<double> teleport{0.0, 0.0, 1.0};
  const auto result = compute_pagerank(g, {}, teleport);
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.scores[2], result.scores[1]);
  EXPECT_GT(result.scores[1], result.scores[0]);
  // Exact geometric fixed point: PR1 = d PR2, PR0 = d PR1.
  EXPECT_NEAR(result.scores[1], 0.85 * result.scores[2], 1e-9);
  EXPECT_NEAR(result.scores[0], 0.85 * result.scores[1], 1e-9);
}

TEST(PageRank, DanglingLeakAmplifiesDownstreamUnderTeleport) {
  // The same chain WITHOUT the closing edge: node 0 dangles, every
  // iteration loses mass and the normalization rescales by lambda < 1,
  // which inverts the gradient (d/lambda > 1). This is a deliberate
  // property of running Algorithm 1's normalized loop with a personalized
  // teleport; the score-table build relies on the profile DAG's structure
  // (branching division) rather than on monotone decay.
  Digraph g(3);
  g.add_edge(2, 1);
  g.add_edge(1, 0);
  std::vector<double> teleport{0.0, 0.0, 1.0};
  const auto result = compute_pagerank(g, {}, teleport);
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.scores[0], result.scores[1]);
  EXPECT_GT(result.scores[1], result.scores[2]);
}

TEST(PageRank, TeleportValidation) {
  Digraph g(2);
  std::vector<double> wrong_size{1.0};
  EXPECT_THROW(compute_pagerank(g, {}, wrong_size), std::invalid_argument);
  std::vector<double> negative{1.0, -1.0};
  EXPECT_THROW(compute_pagerank(g, {}, negative), std::invalid_argument);
  std::vector<double> zero{0.0, 0.0};
  EXPECT_THROW(compute_pagerank(g, {}, zero), std::invalid_argument);
}

TEST(PageRank, OptionValidation) {
  Digraph g(1);
  PageRankOptions bad;
  bad.damping = 1.0;
  EXPECT_THROW(compute_pagerank(g, bad), std::invalid_argument);
  bad = {};
  bad.epsilon = 0.0;
  EXPECT_THROW(compute_pagerank(g, bad), std::invalid_argument);
  bad = {};
  bad.max_iterations = 0;
  EXPECT_THROW(compute_pagerank(g, bad), std::invalid_argument);
  EXPECT_THROW(compute_pagerank(Digraph(0)), std::invalid_argument);
}

// The reversed graph, built the way the push reads it: row v lists the u
// with an edge u -> v, ascending.
Digraph reversed_of(const Digraph& forward) {
  Digraph reversed(forward.node_count());
  for (NodeId u = 0; u < forward.node_count(); ++u) {
    for (NodeId v : forward.successors(u)) reversed.add_edge(v, u);
  }
  reversed.finalize();
  return reversed;
}

// The skipping pull, on the shared pool and with every pool loop inline,
// against the full push over the reversed graph: same scores bit for bit,
// same iteration count and converged flag. Returns the pooled pull.
PageRankResult expect_pull_matches_full_push(const Digraph& forward,
                                             std::span<const double> teleport,
                                             const std::string& label,
                                             const PageRankOptions& options = {}) {
  const PageRankResult push = compute_pagerank(reversed_of(forward), options, teleport);
  EXPECT_EQ(push.row_updates, forward.node_count() * push.iterations) << label;
  PageRankResult pooled = compute_pagerank_reversed(forward, options, teleport);
  PageRankResult inlined;
  run_inline([&] { inlined = compute_pagerank_reversed(forward, options, teleport); });
  for (const PageRankResult* pull : {&pooled, &inlined}) {
    const std::string which = label + (pull == &pooled ? " pooled" : " inline");
    EXPECT_EQ(pull->iterations, push.iterations) << which;
    EXPECT_EQ(pull->converged, push.converged) << which;
    EXPECT_EQ(pull->row_updates, pooled.row_updates) << which;
    EXPECT_LE(pull->row_updates, push.row_updates) << which;
    if (pull->scores.size() != push.scores.size()) {
      ADD_FAILURE() << which << ": " << pull->scores.size() << " scores";
    } else if (pull->scores != push.scores) {
      std::size_t u = 0;
      while (pull->scores[u] == push.scores[u]) ++u;
      ADD_FAILURE() << which << ": node " << u << " pulled " << pull->scores[u] << ", pushed "
                    << push.scores[u];
    }
  }
  return pooled;
}

// The pull form must reproduce the push over an explicitly reversed graph
// bit for bit (the score tables depend on it), and so must its skipping of
// dead rows: on the shared pool and with every pool loop inline, with
// adjacency lists sorted as the profile graph's are. First small random
// DAGs with a teleport vector as ScoreTable::build passes one; then larger
// random digraphs, cycles allowed and several pool chunks wide, with the
// teleport on a few nodes only, so that many rows cannot reach it: some
// are zero-teleport sinks, some sit in deep DAG regions that die one layer
// per iteration, and some sit on zero-teleport cycles, which never die.
// Each large graph also runs with a uniform teleport, where nothing dies.
TEST(PageRank, ReversedPullMatchesPushOverReversedGraphExactly) {
  Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 2 + rng.uniform_index(60);
    Digraph forward(n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (rng.uniform_index(4) == 0) forward.add_edge(u, v);
      }
    }
    forward.finalize();
    std::vector<double> teleport(n, 0.0);
    teleport[n - 1] = 1.0;
    teleport[rng.uniform_index(n)] += 0.5;
    expect_pull_matches_full_push(forward, teleport, "dag " + std::to_string(trial));
  }
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 1100 + rng.uniform_index(1500);
    // Nodes below `dag` only link forward, so nothing below it lies on a
    // cycle; the rest link anywhere.
    const std::size_t dag = rng.uniform_index(n);
    Digraph forward(n);
    for (NodeId u = 0; u < n; ++u) {
      std::vector<NodeId> succ;
      const std::size_t degree = rng.uniform_index(4);
      for (std::size_t k = 0; k < degree; ++k) {
        const std::size_t v = u < dag ? u + 1 + rng.uniform_index(std::min<std::size_t>(40, n - u))
                                      : rng.uniform_index(n);
        if (v < n && v != u) succ.push_back(static_cast<NodeId>(v));
      }
      std::sort(succ.begin(), succ.end());
      succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
      for (NodeId v : succ) forward.add_edge(u, v);
    }
    forward.finalize();
    std::vector<double> teleport(n, 0.0);
    for (int k = 0; k < 3; ++k) teleport[rng.uniform_index(n)] += 1.0 + k;
    const std::string label = "digraph " + std::to_string(trial);
    const PageRankResult pull = expect_pull_matches_full_push(forward, teleport, label);
    EXPECT_LT(pull.row_updates, n * pull.iterations) << label << " skipped nothing";
    const PageRankResult uniform = expect_pull_matches_full_push(forward, {}, label + " uniform");
    EXPECT_EQ(uniform.row_updates, n * uniform.iterations) << label;
  }
}

// A chain of zero-teleport rows ending in a sink dies one row per
// iteration from the sink back; a zero-teleport cycle, and a row that only
// pulls from it, are never dead however small their scores get.
TEST(PageRank, DeadRowsAreExactlyTheRowsThatCannotReachTeleportOrACycle) {
  constexpr std::size_t kChain = 30;
  // 0..29: chain 0 -> 1 -> ... -> 29 (sink). 30: teleport, pulls from 0.
  // 31 -> 32 -> 33 -> 31: cycle. 34 -> 31. 35: isolated, no teleport.
  constexpr std::size_t n = kChain + 6;
  Digraph forward(n);
  for (NodeId u = 0; u + 1 < kChain; ++u) forward.add_edge(u, u + 1);
  forward.add_edge(30, 0);
  forward.add_edge(31, 32);
  forward.add_edge(32, 33);
  forward.add_edge(33, 31);
  forward.add_edge(34, 31);
  forward.finalize();
  std::vector<double> teleport(n, 0.0);
  teleport[30] = 1.0;
  const PageRankResult pull = expect_pull_matches_full_push(forward, teleport, "chain");
  ASSERT_GT(pull.iterations, static_cast<int>(kChain));
  // Iteration 1 kills the chain's sink and node 35, iteration j the chain
  // row kChain - j; from iteration kChain on, only 30..34 are live.
  std::size_t expected = 0;
  for (std::size_t j = 1; j <= static_cast<std::size_t>(pull.iterations); ++j) {
    const std::size_t dead_before = j == 1 ? 0 : 1 + std::min(j - 1, kChain);
    expected += n - dead_before;
  }
  EXPECT_EQ(pull.row_updates, expected);
  for (NodeId u = 0; u < kChain; ++u) EXPECT_EQ(pull.scores[u], 0.0) << "chain row " << u;
  EXPECT_EQ(pull.scores[35], 0.0);
  for (NodeId u = 30; u <= 34; ++u) EXPECT_GT(pull.scores[u], 0.0) << "row " << u;
}

// A row's change in the iteration it dies counts toward convergence: a
// zero-teleport sink among 10 teleport sinks dies in iteration 1 with its
// 1/11 share, while each sink moves by only 1/110, under epsilon.
TEST(PageRank, ARowsLastChangeCountsTowardConvergence) {
  constexpr std::size_t n = 11;
  std::vector<double> teleport(n, 1.0);
  teleport[0] = 0.0;
  PageRankOptions options;
  options.epsilon = 0.05;
  const PageRankResult pull =
      expect_pull_matches_full_push(Digraph(std::vector<std::size_t>(n + 1, 0), {}), teleport,
                                    "sinks", options);
  EXPECT_EQ(pull.iterations, 2);
  EXPECT_EQ(pull.row_updates, n + n - 1);
}

}  // namespace
}  // namespace prvm
