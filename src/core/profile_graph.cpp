#include "core/profile_graph.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "common/check.hpp"
#include "common/worker_pool.hpp"
#include "core/score_table.hpp"
#include "obs/metrics.hpp"

namespace prvm {

namespace {

constexpr std::size_t kWaveChunk = 256;  ///< frontier nodes per expansion task
constexpr std::size_t kRowChunk = 1024;  ///< CSR rows per canonicalize task

// Tags a node id handed out inside a wave before the wave numbers its new
// nodes; the low bits count the shard's new keys. Node ids therefore stay
// below 2^31.
constexpr NodeId kProvisional = NodeId{1} << 31;

// A scratch array that grows to the largest wave and is never initialized:
// every pass writes the elements it hands to the next one.
template <typename T>
class WaveArray {
 public:
  T* get(std::size_t n) {
    if (n > capacity_) {
      data_ = std::make_unique_for_overwrite<T[]>(n);
      capacity_ = n;
    }
    return data_.get();
  }

 private:
  std::unique_ptr<T[]> data_;
  std::size_t capacity_ = 0;
};

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

struct ProfileGraph::WaveScratch {
  std::vector<std::vector<ProfileKey>> chunk_keys;  ///< per expansion task, reused
  std::vector<std::size_t> chunk_start;   ///< where each task's keys start in the wave
  std::vector<std::uint8_t> unfilled;     ///< per wave node: needs a memo fill
  std::vector<std::uint32_t> row_len;     ///< successor count per wave node
  std::vector<std::size_t> cursor;        ///< [task * kShards + shard] scatter position
  std::vector<std::size_t> shard_begin;   ///< kShards + 1 bounds of the items
  WaveArray<ProfileKey> item_keys;        ///< the wave's keys grouped by shard
  WaveArray<NodeId> item_nodes;           ///< each item's node, provisional or final
  WaveArray<std::uint32_t> item_of;       ///< per position in the wave's rows: its item
  std::vector<std::size_t> fresh_count;   ///< per shard
  std::vector<NodeId> first_id;           ///< per shard: id of its first new node
  std::uint64_t expand_ns = 0;
  std::uint64_t intern_ns = 0;

  void record() const {
    score_table_stage_histogram("expand").record(expand_ns);
    score_table_stage_histogram("intern").record(intern_ns);
  }
};

std::size_t ProfileGraph::shard_of(ProfileKey key) {
  // Fibonacci hashing: one multiply, and its top bits owe nothing to the low
  // bits of the hash a shard's FlatMap64 probes with.
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> (64 - kShardBits));
}

ProfileGraph::ProfileGraph(ProfileShape shape, std::vector<QuantizedDemand> demands,
                           const ProfileGraphOptions& options)
    : shape_(std::move(shape)), demands_(std::move(demands)), memo_(shape_) {
  PRVM_REQUIRE(!demands_.empty(), "profile graph needs at least one VM type");
  validate_demands(shape_, demands_);

  const ProfileKey zero = Profile::zero(shape_).pack(shape_);
  keys_.push_back(zero);
  usage_.push_back(key_usage(shape_, zero));
  index_[shard_of(zero)].try_emplace(zero, NodeId{0});
  std::vector<std::size_t> offsets{0};
  std::vector<NodeId> targets;
  WaveScratch scratch;
  grow(offsets, targets, options, scratch);
  scratch.record();
  canonicalize(offsets, targets);
}

ProfileGraph::ExtendStats ProfileGraph::extend(std::vector<QuantizedDemand> new_demands,
                                               const ProfileGraphOptions& options) {
  validate_demands(shape_, new_demands);
  ExtendStats stats;
  if (new_demands.empty()) return stats;

  // Every existing node already has its successors under the old demands;
  // only the new demands can add edges out of it. A successor that is itself
  // new is expanded by grow() under the *full* demand set (its old-demand
  // successors were never enumerated).
  const auto old_node_count = static_cast<NodeId>(keys_.size());
  const std::size_t old_demand_count = demands_.size();
  demands_.insert(demands_.end(), std::make_move_iterator(new_demands.begin()),
                  std::make_move_iterator(new_demands.end()));
  WaveScratch scratch;
  std::vector<std::size_t> added_offsets{0};
  std::vector<NodeId> added;
  expand_wave(0, old_node_count, old_demand_count, added_offsets, added, options, scratch);

  // Rows of the existing nodes: old edges plus the additions that are not
  // already edges. Adjacency is sorted by id = sorted by key (canonical
  // numbering), so membership is a binary search.
  std::vector<std::size_t> offsets{0};
  std::vector<NodeId> targets;
  targets.reserve(graph_.edge_count() + added.size());
  for (NodeId u = 0; u < old_node_count; ++u) {
    const auto adjacent = graph_.successors(u);
    targets.insert(targets.end(), adjacent.begin(), adjacent.end());
    for (std::size_t e = added_offsets[u]; e < added_offsets[u + 1]; ++e) {
      const NodeId v = added[e];
      if (v >= old_node_count || !std::binary_search(adjacent.begin(), adjacent.end(), v)) {
        targets.push_back(v);
      }
    }
    offsets.push_back(targets.size());
  }
  if (targets.size() == graph_.edge_count()) return stats;  // no new edge, no new node

  grow(offsets, targets, options, scratch);
  scratch.record();
  stats.new_nodes = keys_.size() - old_node_count;
  stats.new_edges = targets.size() - graph_.edge_count();
  canonicalize(offsets, targets);
  return stats;
}

void ProfileGraph::grow(std::vector<std::size_t>& offsets, std::vector<NodeId>& targets,
                        const ProfileGraphOptions& options, WaveScratch& scratch) {
  for (auto begin = static_cast<NodeId>(offsets.size() - 1); begin < keys_.size();) {
    const auto end = static_cast<NodeId>(keys_.size());
    expand_wave(begin, end, 0, offsets, targets, options, scratch);
    begin = end;
  }
}

void ProfileGraph::expand_wave(NodeId begin, NodeId end, std::size_t first_demand,
                               std::vector<std::size_t>& offsets, std::vector<NodeId>& targets,
                               const ProfileGraphOptions& options, WaveScratch& w) {
  WorkerPool& pool = WorkerPool::shared();
  const std::size_t count = end - begin;
  const std::size_t chunks = (count + kWaveChunk - 1) / kWaveChunk;
  const std::uint64_t start_ns = obs::now_ns();
  // Only a node with a group state new to the memo needs the serial fill;
  // finding those runs on the pool, which only reads the memo.
  w.unfilled.resize(count);
  pool.parallel_chunks(count, kWaveChunk, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      w.unfilled[i] = !memo_.filled(keys_[begin + i], first_demand, demands_.size());
    }
  });
  for (std::size_t i = 0; i < count; ++i) {
    if (w.unfilled[i]) memo_.fill(keys_[begin + i], demands_, first_demand);
  }

  // Expand: each task appends its nodes' distinct successor keys, sorted, to
  // its own buffer and counts them per shard.
  if (w.chunk_keys.size() < chunks) w.chunk_keys.resize(chunks);
  w.row_len.resize(count);
  w.cursor.assign(chunks * kShards, 0);
  pool.parallel_chunks(count, kWaveChunk, [&](std::size_t lo, std::size_t hi) {
    std::vector<ProfileKey>& keys = w.chunk_keys[lo / kWaveChunk];
    keys.clear();
    for (std::size_t i = lo; i < hi; ++i) {
      const auto before = static_cast<std::ptrdiff_t>(keys.size());
      memo_.append_successors(keys_[begin + i], first_demand, demands_.size(), keys);
      std::sort(keys.begin() + before, keys.end());
      keys.erase(std::unique(keys.begin() + before, keys.end()), keys.end());
      w.row_len[i] = static_cast<std::uint32_t>(keys.size() - static_cast<std::size_t>(before));
    }
    std::size_t* per_shard = &w.cursor[lo / kWaveChunk * kShards];
    for (ProfileKey key : keys) ++per_shard[shard_of(key)];
  });
  const std::uint64_t expanded_ns = obs::now_ns();
  w.expand_ns += expanded_ns - start_ns;

  // Intern. The keys are copied into items grouped by shard, in wave order
  // within a shard, so each shard task meets its keys in the order a serial
  // pass would. Every pass writes only its own contiguous ranges.
  w.chunk_start.resize(chunks);
  std::size_t total = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    w.chunk_start[c] = total;
    total += w.chunk_keys[c].size();
  }
  PRVM_CHECK(total <= UINT32_MAX, "profile-graph wave too large");
  w.shard_begin.assign(kShards + 1, total);
  for (std::size_t s = 0, pos = 0; s < kShards; ++s) {
    w.shard_begin[s] = pos;
    for (std::size_t c = 0; c < chunks; ++c) pos += std::exchange(w.cursor[c * kShards + s], pos);
  }
  ProfileKey* const item_keys = w.item_keys.get(total);
  NodeId* const item_nodes = w.item_nodes.get(total);
  std::uint32_t* const item_of = w.item_of.get(total);
  pool.parallel_for(
      0, chunks,
      [&](std::size_t c) {
        std::size_t* cursor = &w.cursor[c * kShards];
        std::uint32_t* out = item_of + w.chunk_start[c];
        for (ProfileKey key : w.chunk_keys[c]) {
          const std::size_t item = cursor[shard_of(key)]++;
          item_keys[item] = key;
          *out++ = static_cast<std::uint32_t>(item);
        }
      },
      1);

  // Each shard task probes its own map. The j-th key new to the shard this
  // wave gets the provisional id kProvisional | j until the wave numbers its
  // new nodes.
  w.fresh_count.assign(kShards, 0);
  pool.parallel_for(
      0, kShards,
      [&](std::size_t s) {
        FlatMap64<NodeId>& index = index_[s];
        std::size_t fresh = 0;
        for (std::size_t p = w.shard_begin[s]; p < w.shard_begin[s + 1]; ++p) {
          const auto [node, inserted] =
              index.try_emplace(item_keys[p], kProvisional | static_cast<NodeId>(fresh));
          fresh += inserted ? 1 : 0;
          item_nodes[p] = node;
        }
        w.fresh_count[s] = fresh;
      },
      1);

  // New nodes are numbered shard by shard and entered one task per shard;
  // then each expansion task writes its nodes' rows, resolving provisional
  // ids.
  w.first_id.resize(kShards);
  std::size_t node_count = keys_.size();
  for (std::size_t s = 0; s < kShards; ++s) {
    w.first_id[s] = static_cast<NodeId>(node_count);
    node_count += w.fresh_count[s];
    PRVM_REQUIRE(node_count <= std::min<std::size_t>(options.max_nodes, kProvisional),
                 "profile graph exceeds max_nodes; coarsen quantization");
  }
  keys_.resize(node_count);
  usage_.resize(node_count);
  pool.parallel_for(
      0, kShards,
      [&](std::size_t s) {
        // New key j first occurs before new key j + 1.
        NodeId id = w.first_id[s];
        NodeId next = kProvisional;
        for (std::size_t p = w.shard_begin[s]; p < w.shard_begin[s + 1]; ++p) {
          if (item_nodes[p] != next) continue;
          keys_[id] = item_keys[p];
          usage_[id] = key_usage(shape_, item_keys[p]);
          *index_[s].find(item_keys[p]) = id++;
          ++next;
        }
      },
      1);
  const std::size_t base = targets.size();
  for (std::size_t i = 0; i < count; ++i) offsets.push_back(offsets.back() + w.row_len[i]);
  targets.resize(base + total);
  pool.parallel_for(
      0, chunks,
      [&](std::size_t c) {
        const std::uint32_t* item = item_of + w.chunk_start[c];
        NodeId* out = targets.data() + base + w.chunk_start[c];
        for (ProfileKey key : w.chunk_keys[c]) {
          const NodeId node = item_nodes[*item++];
          *out++ = (node & kProvisional) == 0 ? node
                                              : w.first_id[shard_of(key)] + (node & ~kProvisional);
        }
      },
      1);
  w.intern_ns += obs::now_ns() - expanded_ns;
}

void ProfileGraph::canonicalize(const std::vector<std::size_t>& offsets,
                                const std::vector<NodeId>& targets) {
  const obs::ScopedTimerNs timer(score_table_stage_histogram("canonicalize"));
  WorkerPool& pool = WorkerPool::shared();
  const std::size_t n = keys_.size();
  PRVM_CHECK(offsets.size() == n + 1, "every node needs its successor row");
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
  pool.parallel_for(
      0, kShards,
      [&](std::size_t s) { index_[s].for_each_value([&](NodeId& v) { v = new_id[v]; }); }, 1);

  // Canonical row p is the discovery row of node order[p], renumbered and
  // sorted by target; each row is written by one task.
  std::vector<std::size_t> canon_offsets(n + 1, 0);
  for (std::size_t p = 0; p < n; ++p) {
    canon_offsets[p + 1] = canon_offsets[p] + offsets[order[p] + 1] - offsets[order[p]];
  }
  std::vector<NodeId> canon_targets(targets.size());
  pool.parallel_chunks(n, kRowChunk, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t p = lo; p < hi; ++p) {
      NodeId* const row = canon_targets.data() + canon_offsets[p];
      NodeId* out = row;
      for (std::size_t e = offsets[order[p]]; e < offsets[order[p] + 1]; ++e) {
        *out++ = new_id[targets[e]];
      }
      std::sort(row, out);
    }
  });
  graph_ = Digraph(std::move(canon_offsets), std::move(canon_targets));
}

std::optional<NodeId> ProfileGraph::best_node() const {
  return find_node(best_profile(shape_).pack(shape_));
}

std::optional<NodeId> ProfileGraph::find_node(ProfileKey key) const {
  const NodeId* node = index_[shard_of(key)].find(key);
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
