// Damped PageRank over a Digraph — the iteration of the paper's Algorithm 1.
//
// Faithful to the pseudocode: push-style auxiliary accumulation
// (Aux(P') += PR(P)/|S(P)|), update PR(P) = (1-d)/N + d*Aux(P), then L1
// normalization *inside* every iteration (Line 17), converging when the
// largest per-node change drops below epsilon.
#pragma once

#include <span>
#include <vector>

#include "pagerank/graph.hpp"

namespace prvm {

struct PageRankOptions {
  double damping = 0.85;   ///< d; the paper uses 0.85 "as generally assumed"
  double epsilon = 1e-12;  ///< convergence threshold on max |ΔPR|
  int max_iterations = 10000;
};

struct PageRankResult {
  std::vector<double> scores;  ///< normalized: sums to 1, all non-negative
  int iterations = 0;
  bool converged = false;
  /// Rows whose score was recomputed, summed over the iterations: nodes x
  /// iterations for a full sweep, less where dead rows were skipped.
  std::size_t row_updates = 0;
};

/// Runs the Algorithm 1 iteration on a graph. Requires at least one node.
PageRankResult compute_pagerank(const Digraph& graph, const PageRankOptions& options = {});

/// Personalized variant: the (1-d) teleport mass is distributed according
/// to `teleport` (non-negative, at least one positive; internally
/// normalized) instead of uniformly. With teleport at a single node t the
/// result is the damped sum of walk weights from t, i.e. rank(P) reflects
/// the (damped, branching-discounted) number of paths t -> P.
PageRankResult compute_pagerank(const Digraph& graph, const PageRankOptions& options,
                                std::span<const double> teleport);

/// compute_pagerank(reverse(graph), options, teleport) without building the
/// reversed graph: a pull over `graph`'s own CSR, Aux(P) = sum of
/// PR(P')/indeg(P') over P's successors P'. With every adjacency list sorted
/// ascending (as ProfileGraph's are), the terms are added in the order the
/// push over the reversed graph adds them, so the scores are bit-identical.
/// Rows are pulled on the shared worker pool; each row still has one writer
/// and one summation order, so the thread count cannot change a bit.
///
/// Dead rows are skipped. Row P is dead at iteration j when its teleport
/// term is 0 and every successor was dead at iteration j-1; no row is dead
/// at iteration 0. A dead row's value is exactly 0 + d*0 = 0.0, so dropping
/// it from the gather, from the node-order L1 sum (adding +0.0 to a
/// non-negative partial sum is exact) and from the renormalize pass (0/sum
/// is 0) changes no score bit and no iteration count. The rule reads the
/// graph's structure, never a score, so an underflow cannot kill a live row;
/// a row on a cycle or one that reaches a positive-teleport node never dies.
/// With the teleport pinned on the best profile (ScoreTable's
/// kReverseToBest), every profile that cannot reach it is dead within a few
/// iterations. Once an iteration kills no row none can die later, and the
/// live rows then pull only their live successors.
PageRankResult compute_pagerank_reversed(const Digraph& graph, const PageRankOptions& options,
                                         std::span<const double> teleport);

}  // namespace prvm
