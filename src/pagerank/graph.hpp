// A compact directed graph.
//
// Built either incrementally (adjacency lists, then finalize() packs them
// into CSR form) or straight from a CSR, as the profile graph does; the
// PageRank solver and the BPRU sweep iterate the CSR. Profile graphs are
// DAGs (total usage strictly increases along every edge), and the DAG-only
// utilities (topological order, path counting) verify that.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace prvm {

using NodeId = std::uint32_t;

class Digraph {
 public:
  explicit Digraph(std::size_t node_count = 0);

  /// Adopts a finished CSR: `offsets` has node_count + 1 ascending entries
  /// starting at 0 and ending at edges.size(); row u's targets are
  /// edges[offsets[u], offsets[u+1]). The result is finalized.
  Digraph(std::vector<std::size_t> offsets, std::vector<NodeId> edges);

  /// Adds an isolated node and returns its id.
  NodeId add_node();

  /// Adds a directed edge. Callers must not add edges after finalize().
  void add_edge(NodeId from, NodeId to);

  std::size_t node_count() const {
    return finalized_ ? csr_offsets_.size() - 1 : adjacency_.size();
  }
  std::size_t edge_count() const { return edge_count_; }

  /// Packs adjacency into CSR. Idempotent; successors() works before or
  /// after, but iteration is faster after.
  void finalize();
  bool finalized() const { return finalized_; }

  std::span<const NodeId> successors(NodeId node) const;
  std::size_t out_degree(NodeId node) const { return successors(node).size(); }

 private:
  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<std::size_t> csr_offsets_;
  std::vector<NodeId> csr_edges_;
  std::size_t edge_count_ = 0;
  bool finalized_ = false;
};

/// Topological order (sources first). Throws std::invalid_argument if the
/// graph has a cycle.
std::vector<NodeId> topological_order(const Digraph& graph);

/// Number of distinct directed paths from every node to `target` (a node's
/// count of "ways to develop to the best profile", paper §V-A). The empty
/// path from target to itself counts as 1. Requires a DAG. Saturates at
/// UINT64_MAX on overflow.
std::vector<std::uint64_t> count_paths_to(const Digraph& graph, NodeId target);

}  // namespace prvm
