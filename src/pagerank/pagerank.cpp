#include "pagerank/pagerank.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/worker_pool.hpp"

namespace prvm {

namespace {

// Nodes per pool task in the per-node passes. Task boundaries are fixed by
// the node count alone, and every pass writes each node from one task only.
constexpr std::size_t kNodeChunk = 1024;

// The Algorithm 1 iteration over n nodes; `accumulate(previous, aux)` fills
// aux with the votes each node receives from the previous scores.
template <typename Accumulate>
PageRankResult iterate(std::size_t n, const PageRankOptions& options,
                       std::span<const double> teleport, Accumulate accumulate) {
  PRVM_REQUIRE(n > 0, "PageRank over an empty graph");
  PRVM_REQUIRE(options.damping >= 0.0 && options.damping < 1.0, "damping must be in [0,1)");
  PRVM_REQUIRE(options.epsilon > 0.0, "epsilon must be positive");
  PRVM_REQUIRE(options.max_iterations >= 1, "need at least one iteration");
  PRVM_REQUIRE(teleport.empty() || teleport.size() == n,
               "teleport vector must have one weight per node");

  // Normalized teleport distribution (uniform when none given).
  std::vector<double> base(n, 0.0);
  if (teleport.empty()) {
    std::fill(base.begin(), base.end(), (1.0 - options.damping) / static_cast<double>(n));
  } else {
    double total = 0.0;
    for (double w : teleport) {
      PRVM_REQUIRE(w >= 0.0, "teleport weights must be non-negative");
      total += w;
    }
    PRVM_REQUIRE(total > 0.0, "teleport needs at least one positive weight");
    for (std::size_t u = 0; u < n; ++u) {
      base[u] = (1.0 - options.damping) * teleport[u] / total;
    }
  }

  PageRankResult result;
  result.scores.assign(n, 1.0 / static_cast<double>(n));
  std::vector<double> aux(n, 0.0);
  std::vector<double> previous(n);
  std::vector<double> chunk_delta((n + kNodeChunk - 1) / kNodeChunk);
  WorkerPool& pool = WorkerPool::shared();

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // The outgoing scores become "previous" by pointer swap, not by copying
    // the vector; accumulate() reads `previous` and the new scores
    // overwrite whatever the buffer held.
    std::swap(previous, result.scores);
    accumulate(previous, aux);

    // The L1 sum stays one serial pass in node order: its rounding depends
    // on the order of the adds.
    double sum = 0.0;
    for (std::size_t u = 0; u < n; ++u) {
      result.scores[u] = base[u] + options.damping * aux[u];
      sum += result.scores[u];
    }
    PRVM_CHECK(sum > 0.0, "PageRank mass vanished");
    // L1-renormalize and track the convergence delta on the pool. Each score
    // is one divide, whoever runs it, and a max does not depend on the order
    // it is taken in, so scores and iteration count stay bit-identical.
    pool.parallel_chunks(n, kNodeChunk, [&](std::size_t lo, std::size_t hi) {
      double delta = 0.0;
      for (std::size_t u = lo; u < hi; ++u) {
        const double s = result.scores[u] / sum;
        result.scores[u] = s;
        delta = std::max(delta, std::abs(s - previous[u]));
      }
      chunk_delta[lo / kNodeChunk] = delta;
    });
    const double max_delta = *std::max_element(chunk_delta.begin(), chunk_delta.end());
    result.iterations = iter + 1;
    if (max_delta < options.epsilon) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace

PageRankResult compute_pagerank(const Digraph& graph, const PageRankOptions& options) {
  return compute_pagerank(graph, options, {});
}

PageRankResult compute_pagerank(const Digraph& graph, const PageRankOptions& options,
                                std::span<const double> teleport) {
  const std::size_t n = graph.node_count();
  return iterate(n, options, teleport,
                 [&](const std::vector<double>& previous, std::vector<double>& aux) {
                   std::fill(aux.begin(), aux.end(), 0.0);
                   for (NodeId u = 0; u < n; ++u) {
                     const std::span<const NodeId> succ = graph.successors(u);
                     if (succ.empty()) continue;
                     const double share = previous[u] / static_cast<double>(succ.size());
                     for (NodeId v : succ) aux[v] += share;
                   }
                 });
}

PageRankResult compute_pagerank_reversed(const Digraph& graph, const PageRankOptions& options,
                                         std::span<const double> teleport) {
  const std::size_t n = graph.node_count();
  // A node's out-degree in the reversed graph is its in-degree here.
  std::vector<std::size_t> in_degree(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : graph.successors(u)) ++in_degree[v];
  }
  std::vector<double> share(n, 0.0);
  WorkerPool& pool = WorkerPool::shared();
  // Both passes run on the pool over node slices. A pull gives every row one
  // writer, which adds the row's terms in CSR order whichever thread it is,
  // so the sums are the serial sums bit for bit.
  return iterate(n, options, teleport,
                 [&](const std::vector<double>& previous, std::vector<double>& aux) {
                   pool.parallel_chunks(n, kNodeChunk, [&](std::size_t lo, std::size_t hi) {
                     for (std::size_t v = lo; v < hi; ++v) {
                       if (in_degree[v] != 0) {
                         share[v] = previous[v] / static_cast<double>(in_degree[v]);
                       }
                     }
                   });
                   pool.parallel_chunks(n, kNodeChunk, [&](std::size_t lo, std::size_t hi) {
                     for (std::size_t u = lo; u < hi; ++u) {
                       double votes = 0.0;
                       for (NodeId v : graph.successors(static_cast<NodeId>(u))) votes += share[v];
                       aux[u] = votes;
                     }
                   });
                 });
}

}  // namespace prvm
