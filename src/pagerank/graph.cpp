#include "pagerank/graph.hpp"

#include <limits>
#include <stdexcept>

#include "common/check.hpp"

namespace prvm {

Digraph::Digraph(std::size_t node_count) : adjacency_(node_count) {}

Digraph::Digraph(std::vector<std::size_t> offsets, std::vector<NodeId> edges)
    : csr_offsets_(std::move(offsets)), csr_edges_(std::move(edges)),
      edge_count_(csr_edges_.size()), finalized_(true) {
  PRVM_REQUIRE(!csr_offsets_.empty() && csr_offsets_.front() == 0 &&
                   csr_offsets_.back() == csr_edges_.size(),
               "CSR offsets do not frame the edge array");
}

NodeId Digraph::add_node() {
  PRVM_REQUIRE(!finalized_, "cannot add nodes after finalize()");
  adjacency_.emplace_back();
  return static_cast<NodeId>(adjacency_.size() - 1);
}

void Digraph::add_edge(NodeId from, NodeId to) {
  PRVM_REQUIRE(!finalized_, "cannot add edges after finalize()");
  PRVM_REQUIRE(from < adjacency_.size() && to < adjacency_.size(), "edge endpoint out of range");
  adjacency_[from].push_back(to);
  ++edge_count_;
}

void Digraph::finalize() {
  if (finalized_) return;
  csr_offsets_.resize(adjacency_.size() + 1);
  csr_edges_.reserve(edge_count_);
  csr_offsets_[0] = 0;
  for (std::size_t i = 0; i < adjacency_.size(); ++i) {
    for (NodeId to : adjacency_[i]) csr_edges_.push_back(to);
    csr_offsets_[i + 1] = csr_edges_.size();
  }
  adjacency_ = {};
  finalized_ = true;
}

std::span<const NodeId> Digraph::successors(NodeId node) const {
  PRVM_REQUIRE(node < node_count(), "node out of range");
  if (finalized_) {
    const std::size_t begin = csr_offsets_[node];
    const std::size_t end = csr_offsets_[node + 1];
    return {csr_edges_.data() + begin, end - begin};
  }
  return {adjacency_[node].data(), adjacency_[node].size()};
}

std::vector<NodeId> topological_order(const Digraph& graph) {
  const std::size_t n = graph.node_count();
  std::vector<std::size_t> in_degree(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : graph.successors(u)) ++in_degree[v];
  }
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<NodeId> frontier;
  for (NodeId u = 0; u < n; ++u) {
    if (in_degree[u] == 0) frontier.push_back(u);
  }
  while (!frontier.empty()) {
    const NodeId u = frontier.back();
    frontier.pop_back();
    order.push_back(u);
    for (NodeId v : graph.successors(u)) {
      if (--in_degree[v] == 0) frontier.push_back(v);
    }
  }
  if (order.size() != n) throw std::invalid_argument("topological_order: graph has a cycle");
  return order;
}

std::vector<std::uint64_t> count_paths_to(const Digraph& graph, NodeId target) {
  PRVM_REQUIRE(target < graph.node_count(), "target out of range");
  const std::vector<NodeId> order = topological_order(graph);
  std::vector<std::uint64_t> counts(graph.node_count(), 0);
  counts[target] = 1;
  // Process in reverse topological order so successors are done first.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId u = *it;
    if (u == target) continue;
    std::uint64_t sum = 0;
    for (NodeId v : graph.successors(u)) {
      const std::uint64_t c = counts[v];
      sum = (sum > kMax - c) ? kMax : sum + c;
    }
    counts[u] = sum;
  }
  return counts;
}

}  // namespace prvm
