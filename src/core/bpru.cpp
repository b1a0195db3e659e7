#include "core/bpru.hpp"

#include <algorithm>

#include "common/worker_pool.hpp"

namespace prvm {

std::vector<double> compute_bpru(const ProfileGraph& graph) {
  const Digraph& g = graph.graph();
  const std::size_t n = g.node_count();
  // Usage strictly increases along every edge, so walking usage levels from
  // the top visits every node after all its successors, and the nodes of one
  // level share no edge: each level runs on the pool. A max is exact in any
  // order, so the values match a serial sweep.
  const auto top = static_cast<std::size_t>(graph.shape().total_capacity());
  std::vector<std::size_t> level_begin(top + 2, 0);
  for (NodeId u = 0; u < n; ++u) ++level_begin[graph.usage(u) + 1];
  for (std::size_t l = 0; l <= top; ++l) level_begin[l + 1] += level_begin[l];
  std::vector<NodeId> by_level(n);
  {
    std::vector<std::size_t> cursor(level_begin.begin(), level_begin.end() - 1);
    for (NodeId u = 0; u < n; ++u) by_level[cursor[graph.usage(u)]++] = u;
  }

  std::vector<double> bpru(n, 0.0);
  constexpr std::size_t kChunk = 1024;
  for (std::size_t l = top + 1; l-- > 0;) {
    const NodeId* level = by_level.data() + level_begin[l];
    WorkerPool::shared().parallel_chunks(
        level_begin[l + 1] - level_begin[l], kChunk, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            const NodeId u = level[i];
            const auto succ = g.successors(u);
            if (succ.empty()) {
              bpru[u] = graph.utilization(u);
            } else {
              double best = 0.0;
              for (NodeId v : succ) best = std::max(best, bpru[v]);
              bpru[u] = best;
            }
          }
        });
  }
  return bpru;
}

}  // namespace prvm
