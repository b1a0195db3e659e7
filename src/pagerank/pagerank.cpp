#include "pagerank/pagerank.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/check.hpp"
#include "common/worker_pool.hpp"

namespace prvm {

namespace {

// Nodes per pool task in the per-node passes. Task boundaries are fixed by
// the node (or live-row) count alone, and every pass writes each node from
// one task only.
constexpr std::size_t kNodeChunk = 1024;

// Checks the options and returns every node's (1-d) teleport term: the
// normalized teleport distribution, uniform when none is given.
std::vector<double> teleport_terms(std::size_t n, const PageRankOptions& options,
                                   std::span<const double> teleport) {
  PRVM_REQUIRE(n > 0, "PageRank over an empty graph");
  PRVM_REQUIRE(options.damping >= 0.0 && options.damping < 1.0, "damping must be in [0,1)");
  PRVM_REQUIRE(options.epsilon > 0.0, "epsilon must be positive");
  PRVM_REQUIRE(options.max_iterations >= 1, "need at least one iteration");
  PRVM_REQUIRE(teleport.empty() || teleport.size() == n,
               "teleport vector must have one weight per node");

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
  return base;
}

}  // namespace

PageRankResult compute_pagerank(const Digraph& graph, const PageRankOptions& options) {
  return compute_pagerank(graph, options, {});
}

PageRankResult compute_pagerank(const Digraph& graph, const PageRankOptions& options,
                                std::span<const double> teleport) {
  const std::size_t n = graph.node_count();
  const std::vector<double> base = teleport_terms(n, options, teleport);
  PageRankResult result;
  result.scores.assign(n, 1.0 / static_cast<double>(n));
  std::vector<double> aux(n, 0.0);
  std::vector<double> previous(n);
  std::vector<double> chunk_delta((n + kNodeChunk - 1) / kNodeChunk);
  WorkerPool& pool = WorkerPool::shared();

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // The outgoing scores become "previous" by pointer swap, not by copying
    // the vector; the new scores overwrite whatever the buffer held.
    std::swap(previous, result.scores);
    std::fill(aux.begin(), aux.end(), 0.0);
    for (NodeId u = 0; u < n; ++u) {
      const std::span<const NodeId> succ = graph.successors(u);
      if (succ.empty()) continue;
      const double share = previous[u] / static_cast<double>(succ.size());
      for (NodeId v : succ) aux[v] += share;
    }

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
    result.row_updates += n;
    if (max_delta < options.epsilon) {
      result.converged = true;
      break;
    }
  }
  return result;
}

PageRankResult compute_pagerank_reversed(const Digraph& graph, const PageRankOptions& options,
                                         std::span<const double> teleport) {
  const std::size_t n = graph.node_count();
  const std::vector<double> base = teleport_terms(n, options, teleport);
  // A node's out-degree in the reversed graph is its in-degree here.
  std::vector<std::size_t> in_degree(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : graph.successors(u)) ++in_degree[v];
  }

  PageRankResult result;
  result.scores.assign(n, 1.0 / static_cast<double>(n));
  std::vector<double> previous(n);
  // share[v] = v's latest normalized score / in_degree[v]: the vote v passes
  // to each node that pulls it. Written by the renormalize pass of the
  // iteration before, so an iteration needs two pool passes.
  std::vector<double> share(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    if (in_degree[v] != 0) share[v] = result.scores[v] / static_cast<double>(in_degree[v]);
  }
  std::vector<double> aux(n, 0.0);
  std::vector<double> chunk_delta((n + kNodeChunk - 1) / kNodeChunk);

  // The rows still updated, ascending, and the successors each one pulls
  // (its own CSR row until the dead set is final, then only live targets).
  // A row dies once its teleport term is 0 and every successor was dead in
  // the iteration before: from then on its score is exactly 0.0 (see the
  // header), so it leaves `live`, and both score buffers and its share
  // hold 0 for it.
  std::vector<NodeId> live(n);
  std::iota(live.begin(), live.end(), NodeId{0});
  std::vector<std::span<const NodeId>> pulls(n);
  for (NodeId u = 0; u < n; ++u) pulls[u] = graph.successors(u);
  // One byte per row: std::vector<bool> would pack rows that two pool tasks
  // write into one word.
  std::vector<std::uint8_t> dead(n, 0);
  std::vector<std::uint8_t> fed(n, 0);
  std::vector<NodeId> live_edges;
  bool compacted = false;
  WorkerPool& pool = WorkerPool::shared();

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    std::swap(previous, result.scores);
    // Gather on the pool: every live row has one writer, which adds its
    // successors' shares in CSR order whichever thread it is, so the sums
    // are the serial sums bit for bit. A dead successor's share is +0.0,
    // as in a full sweep, and the compacted pulls skip it, which changes no
    // bit either. A row without teleport term stays fed while one of its
    // successors is alive; the scan stops at the first one.
    pool.parallel_chunks(live.size(), kNodeChunk, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const NodeId u = live[i];
        double votes = 0.0;
        for (NodeId v : pulls[u]) votes += share[v];
        aux[u] = votes;
        fed[u] = base[u] != 0.0 || std::any_of(pulls[u].begin(), pulls[u].end(),
                                               [&](NodeId v) { return dead[v] == 0; });
      }
    });

    // The L1 sum stays one serial pass in node order over the live rows: a
    // dead row would add +0.0, which leaves every partial sum as it is. The
    // same pass retires the rows that starved this iteration: each one's
    // score is exactly 0 and its delta its previous score.
    double sum = 0.0;
    double dying_delta = 0.0;
    std::size_t kept = 0;
    for (const NodeId u : live) {
      const double s = base[u] + options.damping * aux[u];
      result.scores[u] = s;
      sum += s;
      if (fed[u] != 0) {
        live[kept++] = u;
        continue;
      }
      dying_delta = std::max(dying_delta, previous[u]);
      previous[u] = 0.0;
      share[u] = 0.0;
      dead[u] = 1;
    }
    PRVM_CHECK(sum > 0.0, "PageRank mass vanished");
    result.row_updates += live.size();
    const bool deaths = kept != live.size();
    live.resize(kept);

    // L1-renormalize the surviving rows, track the convergence delta and
    // compute the next shares on the pool. Each score is one divide,
    // whoever runs it, and a max does not depend on the order it is taken
    // in, so scores and iteration count stay bit-identical.
    const std::size_t chunks = (live.size() + kNodeChunk - 1) / kNodeChunk;
    pool.parallel_chunks(live.size(), kNodeChunk, [&](std::size_t lo, std::size_t hi) {
      double delta = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        const NodeId u = live[i];
        const double s = result.scores[u] / sum;
        result.scores[u] = s;
        delta = std::max(delta, std::abs(s - previous[u]));
        if (in_degree[u] != 0) share[u] = s / static_cast<double>(in_degree[u]);
      }
      chunk_delta[lo / kNodeChunk] = delta;
    });
    const double max_delta =
        std::max(dying_delta, *std::max_element(chunk_delta.begin(), chunk_delta.begin() + chunks));
    result.iterations = iter + 1;
    if (max_delta < options.epsilon) {
      result.converged = true;
      break;
    }

    // A row can only die the iteration after one of its successors did, so
    // an iteration without deaths leaves the dead set final. Then, once,
    // the live rows' pulls are cut down to their live successors.
    if (!deaths && live.size() < n && !compacted) {
      std::size_t edges = 0;
      for (const NodeId u : live) {
        for (NodeId v : pulls[u]) edges += dead[v] == 0 ? 1 : 0;
      }
      live_edges.reserve(edges);
      for (const NodeId u : live) {
        const std::size_t begin = live_edges.size();
        for (NodeId v : pulls[u]) {
          if (dead[v] == 0) live_edges.push_back(v);
        }
        pulls[u] = std::span<const NodeId>(live_edges.data() + begin, live_edges.size() - begin);
      }
      compacted = true;
    }
  }
  return result;
}

}  // namespace prvm
