// The PageRankVM profile graph (paper §V-B, Algorithm 1 line 1).
//
// Nodes are the canonical PM usage profiles reachable from the empty profile
// by repeatedly accommodating VMs from the given VM-type set; an edge P -> P'
// exists when P' results from placing one VM (any type, any anti-collocation
// permutation) on P. The graph is a DAG because each placement strictly
// increases total usage.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/flat_map.hpp"
#include "pagerank/graph.hpp"
#include "profile/permutation.hpp"
#include "profile/profile.hpp"

namespace prvm {

struct ProfileGraphOptions {
  /// Safety valve: building aborts (throws) past this many nodes so a
  /// mis-quantized catalog cannot consume all memory.
  std::size_t max_nodes = 8'000'000;
};

class ProfileGraph {
 public:
  /// Builds the reachable profile graph for one shape and VM-type set.
  /// Demands are validated against the shape. Every demand must be
  /// non-empty (a VM that consumes nothing would make the graph cyclic).
  ///
  /// Node numbering is *canonical*: after discovery, nodes are ordered by
  /// ascending ProfileKey and every adjacency list is sorted by target id.
  /// The numbering (and hence every downstream floating-point summation
  /// order) is therefore a pure function of (shape, demand set) — a graph
  /// grown via extend() is bit-identical to one built from scratch with the
  /// final demand list, which is what lets incremental score-table
  /// maintenance promise byte-equal results.
  ProfileGraph(ProfileShape shape, std::vector<QuantizedDemand> demands,
               const ProfileGraphOptions& options = {});

  struct ExtendStats {
    std::size_t new_nodes = 0;
    std::size_t new_edges = 0;  ///< includes edges into and among new nodes
    bool changed() const { return new_nodes > 0 || new_edges > 0; }
  };

  /// Appends VM types to the demand set and grows the graph in place:
  /// existing nodes gain their new-demand successors, newly reachable
  /// profiles are BFS-expanded under the full demand set, and the node
  /// numbering is re-canonicalized. The result is exactly the graph a fresh
  /// build over the concatenated demand list would produce; the work is
  /// proportional to the affected frontier, not the whole graph, and
  /// `changed()` on the returned stats is false when the new VM types reach
  /// no new profile and add no edge (the score table's fast extend path).
  ExtendStats extend(std::vector<QuantizedDemand> new_demands,
                     const ProfileGraphOptions& options = {});

  const ProfileShape& shape() const { return shape_; }
  const std::vector<QuantizedDemand>& demands() const { return demands_; }
  const Digraph& graph() const { return graph_; }

  std::size_t node_count() const { return keys_.size(); }

  /// The empty profile's node (always id 0).
  NodeId zero_node() const { return 0; }

  /// Node of the full-capacity profile, if reachable from empty.
  std::optional<NodeId> best_node() const;

  std::optional<NodeId> find_node(ProfileKey key) const;
  ProfileKey key_of(NodeId node) const { return keys_[node]; }
  Profile profile_of(NodeId node) const { return Profile::unpack(shape_, keys_[node]); }

  /// Utilization in [0,1] of a node's profile (cached).
  double utilization(NodeId node) const;

  /// Total usage (sum of levels) of a node's profile. It strictly increases
  /// along every edge, so descending usage is a topological order.
  std::uint16_t usage(NodeId node) const { return usage_[node]; }

  /// Nodes with no outgoing edges: profiles that cannot accommodate any
  /// further VM — the "endpoints" of the BPRU definition.
  std::vector<NodeId> sink_nodes() const;

  /// Per-group anti-collocation enumerations the graph has run (the memo's
  /// distinct (VM type, group, group state) cases).
  std::size_t group_enumerations() const { return memo_.group_runs(); }

 private:
  /// The node index is split into 2^kShardBits maps by the top bits of a
  /// multiplicative hash of the key, so one BFS wave's keys are interned by
  /// every pool thread at once, each shard by one task.
  static constexpr int kShardBits = 6;
  static constexpr std::size_t kShards = std::size_t{1} << kShardBits;
  static std::size_t shard_of(ProfileKey key);

  /// Buffers reused across the waves of one build, and its stage times.
  struct WaveScratch;

  /// BFS: expands every node from `offsets.size() - 1` on under the full
  /// demand set, wave by wave, until no new node appears. Each node's
  /// successor row (discovery ids) is appended to offsets/targets.
  void grow(std::vector<std::size_t>& offsets, std::vector<NodeId>& targets,
            const ProfileGraphOptions& options, WaveScratch& scratch);

  /// One wave: expands nodes [begin, end) under demands_[first_demand..] and
  /// appends their rows; successors not yet in the graph become nodes end,
  /// end + 1, ... The wave's group states enter the memo before the parallel
  /// expansion, which only reads it.
  void expand_wave(NodeId begin, NodeId end, std::size_t first_demand,
                   std::vector<std::size_t>& offsets, std::vector<NodeId>& targets,
                   const ProfileGraphOptions& options, WaveScratch& scratch);

  /// Renumbers nodes by ascending key and builds the finalized graph from
  /// the discovery-order rows, each row sorted (see the constructor).
  void canonicalize(const std::vector<std::size_t>& offsets, const std::vector<NodeId>& targets);

  ProfileShape shape_;
  std::vector<QuantizedDemand> demands_;
  Digraph graph_;
  std::vector<ProfileKey> keys_;
  std::vector<std::uint16_t> usage_;  ///< total usage per node
  std::vector<FlatMap64<NodeId>> index_ = std::vector<FlatMap64<NodeId>>(kShards);
  SuccessorMemo memo_;  ///< every node's group outcomes under every demand
};

}  // namespace prvm
