#include "core/profile_graph.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"
#include "common/worker_pool.hpp"

namespace prvm {

namespace {

// Appends the distinct successor keys of one canonical profile across the
// given demands to `out`, sorted ascending.
void expand_node(const ProfileShape& shape, ProfileKey key,
                 const std::vector<QuantizedDemand>& demands, std::vector<ProfileKey>& out) {
  const auto begin = static_cast<std::ptrdiff_t>(out.size());
  for (const QuantizedDemand& demand : demands) enumerate_successor_keys(shape, key, demand, out);
  std::sort(out.begin() + begin, out.end());
  out.erase(std::unique(out.begin() + begin, out.end()), out.end());
}

// Total usage of a packed profile: the sum of its levels.
std::uint16_t key_usage(const ProfileShape& shape, ProfileKey key) {
  int total = 0;
  for (std::size_t g = 0; g < shape.group_count(); ++g) {
    const int bits = shape.group_bits(g);
    const ProfileKey mask = (ProfileKey{1} << bits) - 1;
    for (int i = 0; i < shape.groups()[g].count; ++i) {
      total += static_cast<int>(key & mask);
      key >>= bits;
    }
  }
  return static_cast<std::uint16_t>(total);
}

void validate_demands(const ProfileShape& shape, const std::vector<QuantizedDemand>& demands) {
  for (const QuantizedDemand& d : demands) {
    d.validate(shape);
    PRVM_REQUIRE(d.total() > 0, "VM demand must consume at least one level");
  }
}

}  // namespace

ProfileGraph::ProfileGraph(ProfileShape shape, std::vector<QuantizedDemand> demands,
                           const ProfileGraphOptions& options)
    : shape_(std::move(shape)), demands_(std::move(demands)) {
  PRVM_REQUIRE(!demands_.empty(), "profile graph needs at least one VM type");
  validate_demands(shape_, demands_);

  intern_node(Profile::zero(shape_).pack(shape_), options);
  std::vector<std::pair<NodeId, NodeId>> edges;
  grow({NodeId{0}}, edges, options);
  canonicalize(std::move(edges));
}

ProfileGraph::ExtendStats ProfileGraph::extend(std::vector<QuantizedDemand> new_demands,
                                               const ProfileGraphOptions& options) {
  validate_demands(shape_, new_demands);
  ExtendStats stats;
  if (new_demands.empty()) return stats;

  const std::size_t old_node_count = keys_.size();
  std::vector<std::pair<NodeId, NodeId>> pending;
  std::vector<NodeId> frontier;

  // Every existing node already has its successors under the old demands;
  // only the new demands can add edges out of it. A successor that is itself
  // new seeds the BFS frontier, which then expands under the *full* demand
  // set (its old-demand successors were never enumerated).
  std::vector<ProfileKey> succ;
  for (NodeId from = 0; from < old_node_count; ++from) {
    succ.clear();
    expand_node(shape_, keys_[from], new_demands, succ);
    for (ProfileKey key : succ) {
      const auto [node, inserted] = intern_node(key, options);
      if (inserted) {
        frontier.push_back(node);
      } else {
        // Adjacency is sorted by id = sorted by key (canonical numbering),
        // so membership is a binary search.
        const auto adjacent = graph_.successors(from);
        if (std::binary_search(adjacent.begin(), adjacent.end(), node)) continue;
      }
      pending.emplace_back(from, node);
    }
  }

  demands_.insert(demands_.end(), std::make_move_iterator(new_demands.begin()),
                  std::make_move_iterator(new_demands.end()));
  if (pending.empty()) return stats;  // no new edge, no new node: graph unchanged

  grow(std::move(frontier), pending, options);
  stats.new_nodes = keys_.size() - old_node_count;
  stats.new_edges = pending.size();

  // Rebuild the edge list as old edges + everything new, then renumber.
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(graph_.edge_count() + pending.size());
  for (NodeId u = 0; u < old_node_count; ++u) {
    for (NodeId v : graph_.successors(u)) edges.emplace_back(u, v);
  }
  edges.insert(edges.end(), pending.begin(), pending.end());
  canonicalize(std::move(edges));
  return stats;
}

void ProfileGraph::grow(std::vector<NodeId> frontier,
                        std::vector<std::pair<NodeId, NodeId>>& edges,
                        const ProfileGraphOptions& options) {
  constexpr std::size_t kChunk = 256;
  while (!frontier.empty()) {
    // Parallel phase: on the shared worker pool, each chunk of the frontier
    // appends its nodes' successor keys to one flat vector.
    const std::size_t chunks = (frontier.size() + kChunk - 1) / kChunk;
    std::vector<std::vector<ProfileKey>> succ(chunks);
    std::vector<std::uint32_t> succ_count(frontier.size());
    const auto expand = [&](std::size_t c) {
      const std::size_t end = std::min(frontier.size(), (c + 1) * kChunk);
      for (std::size_t i = c * kChunk; i < end; ++i) {
        const std::size_t before = succ[c].size();
        expand_node(shape_, keys_[frontier[i]], demands_, succ[c]);
        succ_count[i] = static_cast<std::uint32_t>(succ[c].size() - before);
      }
    };
    WorkerPool::shared().parallel_for(0, chunks, expand, 1);

    // Serial phase: register new nodes and edges.
    std::vector<NodeId> next;
    for (std::size_t c = 0; c < chunks; ++c) {
      const ProfileKey* key = succ[c].data();
      const std::size_t end = std::min(frontier.size(), (c + 1) * kChunk);
      for (std::size_t i = c * kChunk; i < end; ++i) {
        for (std::uint32_t k = 0; k < succ_count[i]; ++k, ++key) {
          const auto [node, inserted] = intern_node(*key, options);
          if (inserted) next.push_back(node);
          edges.emplace_back(frontier[i], node);
        }
      }
    }
    frontier = std::move(next);
  }
}

std::pair<NodeId, bool> ProfileGraph::intern_node(ProfileKey key,
                                                  const ProfileGraphOptions& options) {
  const auto [node, inserted] = index_.try_emplace(key, static_cast<NodeId>(keys_.size()));
  if (inserted) {
    PRVM_REQUIRE(keys_.size() < options.max_nodes,
                 "profile graph exceeds max_nodes; coarsen quantization");
    keys_.push_back(key);
    usage_.push_back(key_usage(shape_, key));
  }
  return {node, inserted};
}

void ProfileGraph::canonicalize(std::vector<std::pair<NodeId, NodeId>> edges) {
  const std::size_t n = keys_.size();
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(),
            [&](NodeId a, NodeId b) { return keys_[a] < keys_[b]; });

  std::vector<NodeId> new_id(n);
  for (NodeId pos = 0; pos < n; ++pos) new_id[order[pos]] = pos;

  std::vector<ProfileKey> keys(n);
  std::vector<std::uint16_t> usage(n);
  for (NodeId pos = 0; pos < n; ++pos) {
    keys[pos] = keys_[order[pos]];
    usage[pos] = usage_[order[pos]];
  }
  keys_ = std::move(keys);
  usage_ = std::move(usage);
  // The empty profile packs to key 0, the minimum, so it stays node 0.
  PRVM_CHECK(keys_[0] == Profile::zero(shape_).pack(shape_),
             "canonical numbering lost the zero node");

  index_.clear();
  index_.reserve(n);
  for (NodeId u = 0; u < n; ++u) index_.try_emplace(keys_[u], u);

  // CSR by counting sort on the new `from` id, then each (short) row sorted
  // by target. offsets[u + 1] first counts row u; after the prefix sum
  // offsets[u] is row u's start and serves as its fill cursor, which leaves
  // it at row u's end, i.e. the start of row u + 1: shifting the array by
  // one restores the row starts.
  std::vector<std::size_t> offsets(n + 1, 0);
  for (const auto& [from, to] : edges) ++offsets[new_id[from] + 1];
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<NodeId> targets(edges.size());
  for (const auto& [from, to] : edges) targets[offsets[new_id[from]]++] = new_id[to];
  edges = {};
  std::copy_backward(offsets.begin(), offsets.end() - 1, offsets.end());
  offsets[0] = 0;
  for (std::size_t u = 0; u < n; ++u) {
    std::sort(targets.begin() + static_cast<std::ptrdiff_t>(offsets[u]),
              targets.begin() + static_cast<std::ptrdiff_t>(offsets[u + 1]));
  }
  graph_ = Digraph(std::move(offsets), std::move(targets));
}

std::optional<NodeId> ProfileGraph::best_node() const {
  return find_node(best_profile(shape_).pack(shape_));
}

std::optional<NodeId> ProfileGraph::find_node(ProfileKey key) const {
  const NodeId* node = index_.find(key);
  if (node == nullptr) return std::nullopt;
  return *node;
}

double ProfileGraph::utilization(NodeId node) const {
  PRVM_REQUIRE(node < keys_.size(), "node out of range");
  return static_cast<double>(usage_[node]) / static_cast<double>(shape_.total_capacity());
}

std::vector<NodeId> ProfileGraph::sink_nodes() const {
  std::vector<NodeId> sinks;
  for (NodeId u = 0; u < graph_.node_count(); ++u) {
    if (graph_.out_degree(u) == 0) sinks.push_back(u);
  }
  return sinks;
}

}  // namespace prvm
