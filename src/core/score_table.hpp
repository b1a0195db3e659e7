// The Profile → PageRank-score table (paper §V-B) plus the best-successor
// cache that makes Algorithm 2's inner loop a table lookup.
//
// Build pipeline: profile graph -> Algorithm 1 PageRank -> BPRU discount ->
// optional normalization to the table maximum (so scores from differently
// sized graphs — M3 vs C3 PMs — are comparable) -> per-(profile, VM-type)
// best successor.
//
// Storage is flat and demand-major: best_[slot * n + node] so one VM type's
// entries are one contiguous block (extending the table with new VM types
// appends whole blocks). Nodes are numbered in ascending key order
// (ProfileGraph's canonical numbering), so the key array is its own index:
// node_of binary-searches it. A hot access is that search, one 4-byte
// BestEntry load and one load of the successor's score; the indexed engine
// pays the search only when a live profile first enters its per-bucket
// score cache.
//
// The table is self-contained after build (the graph can be discarded). It
// persists in one form, save_image()/map_image(): a page-aligned read-only
// image mapped with mmap, so N cell processes of one host share one
// physical copy (building the EC2-scale tables takes about 0.35 s on 4
// CPUs, and the paper notes the table "is relatively stable during a
// certain period of time"). extend() grows an existing table in place when
// the catalog gains VM types; byte-identical to a fresh build, sublinear
// when the profile graph did not change.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/profile_graph.hpp"
#include "pagerank/pagerank.hpp"

namespace prvm {

namespace obs {
class Histogram;
}  // namespace obs

/// The stages of a cold table build, in order. Each one's wall time per
/// build is recorded in the global registry's `prvm_score_table_<stage>_ns`
/// histogram (expand, intern and canonicalize by ProfileGraph, the next three
/// by ScoreTable::build, image_write by build_score_tables).
inline constexpr std::string_view kScoreTableBuildStages[] = {
    "expand", "intern", "canonicalize", "pagerank", "bpru", "best_successor", "image_write"};

/// The global-registry histogram of one of kScoreTableBuildStages.
obs::Histogram& score_table_stage_histogram(std::string_view stage);

/// "expand 130 ms, intern 45 ms, ..." summed over every build so far, for
/// the stages that ran; empty when no table was built.
std::string score_table_build_split();

/// Which way votes flow in the profile graph.
///
/// The paper's prose defines profile quality as "the capability of this
/// profile to develop to the best profile" (§V-A) and ranks [3,3,3,3] above
/// [4,4,2,2]; but Algorithm 1 *as printed* (each profile votes for its
/// successors, uniform teleport) produces the opposite ordering — nearly
/// saturated profiles have few out-links, so their votes concentrate and
/// rank pools in dead-end-adjacent deep profiles, which measurably degrades
/// placement (hot cores, migration storms). kReverseToBest runs the
/// identical iteration on the reversed graph with the teleport mass pinned
/// on the best reachable profile: rank(P) is then the damped,
/// branching-discounted weight of all paths P -> best — exactly the
/// "convergence of transferring to the best profile", preferring fuller
/// (closer to best), balanced (more ways to reach best) profiles and
/// zeroing dead ends. It is the default; kForwardAsPrinted reproduces the
/// literal pseudocode and is exercised by the ablation bench.
enum class VoteDirection { kReverseToBest, kForwardAsPrinted };

struct ScoreTableOptions {
  PageRankOptions pagerank;
  VoteDirection direction = VoteDirection::kReverseToBest;
  /// Apply the BPRU discount (Algorithm 1 line 19). Off only for ablation.
  bool apply_bpru = true;
  /// Rescale so the highest score is 1.0, making tables of different PM
  /// types comparable during placement.
  bool normalize_to_max = true;
};

/// The teleport kReverseToBest pins: weight 1 on every sink of maximum
/// utilization (the best profile when the VM set can tile the capacity
/// exactly), 0 elsewhere.
std::vector<double> best_profile_teleport(const ProfileGraph& graph);

class ScoreTable {
 public:
  /// One best-successor entry: the node of the best profile reachable by
  /// one placement, or kNoFit. 4 bytes; its score is node_score(successor),
  /// so it is stored once per node instead of once per (node, VM type).
  struct BestEntry {
    NodeId successor = kNoFit;
  };
  static constexpr NodeId kNoFit = static_cast<NodeId>(-1);

  /// Builds the table from a freshly constructed profile graph.
  static ScoreTable build(const ProfileGraph& graph, const ScoreTableOptions& options = {});

  /// Extends `base` to cover `graph`'s (longer) demand list; `base` must
  /// have been built over the same shape with a prefix of graph's demands.
  /// When `graph_changed` is false (ProfileGraph::extend reported no new
  /// node or edge) the node set and scores are reused verbatim and only the
  /// new demand blocks are computed — O(nodes x new demands) instead of a
  /// full PageRank rebuild. Either way the result is byte-identical to
  /// build(graph, options), which the differential suite asserts.
  static ScoreTable extend(const ScoreTable& base, const ProfileGraph& graph,
                           bool graph_changed, const ScoreTableOptions& options = {});

  const ProfileShape& shape() const { return shape_; }
  std::size_t size() const { return node_count_; }
  std::size_t demand_count() const { return demand_count_; }

  /// Score of a canonical profile; nullopt if the profile is not in the
  /// graph (unreachable from empty under the VM set).
  std::optional<double> find(ProfileKey key) const;

  /// Score of a profile known to be in the table (throws otherwise).
  double score(ProfileKey key) const;

  struct Best {
    double score = 0.0;       ///< score of the best successor profile
    ProfileKey successor = 0; ///< that profile's key
  };

  /// Best resulting profile of placing VM type `demand_index` on `current`
  /// (the max over anti-collocation permutations, Algorithm 2 lines 6-7);
  /// nullopt if the VM does not fit.
  std::optional<Best> best_after(ProfileKey current, std::size_t demand_index) const;

  /// Node id of a canonical profile, if present: a binary search over the
  /// ascending keys. Node-keyed accessors below let hot paths resolve the
  /// key once and reuse the id.
  std::optional<NodeId> node_of(ProfileKey key) const;
  ProfileKey key_of(NodeId node) const { return keys_data()[node]; }
  float node_score(NodeId node) const { return scores_data()[node]; }
  std::optional<Best> best_after_node(NodeId node, std::size_t demand_index) const;

  /// The contiguous best-successor block of one VM type, indexed by node —
  /// the raw form of best_after_node for hot loops (no optional, no key
  /// resolution; check entry.successor != kNoFit, then read its score with
  /// node_score).
  std::span<const BestEntry> best_row(std::size_t demand_index) const;

  /// Diagnostics from the build.
  int pagerank_iterations() const { return iterations_; }
  bool pagerank_converged() const { return converged_; }

  /// Read-only image persistence: save_image() writes every array (keys,
  /// scores, best entries) into one page-aligned file that
  /// embeds a digest of (shape, options, demand fingerprint) for the caller
  /// to check; map_image() mmaps it MAP_SHARED|PROT_READ and serves every
  /// accessor straight from the mapping — multiple processes mapping the
  /// same file share one physical copy of the table. The mapping is held by
  /// the returned table (and any copies of it) until the last one dies.
  /// map_image() throws on a missing file, a file of another format
  /// version, a truncated file, keys that are not strictly ascending (the
  /// binary search would return wrong nodes), or a best-successor id out of
  /// range.
  void save_image(const std::filesystem::path& path) const;
  static ScoreTable map_image(const std::filesystem::path& path);

  /// True when the table is served from a map_image() mapping.
  bool is_mapped() const { return image_ != nullptr; }

  /// Digest string identifying (shape, demands, options); doubles as the
  /// image-file naming scheme. Computable without building the graph.
  static std::string digest(const ProfileShape& shape,
                            const std::vector<QuantizedDemand>& demands,
                            const ScoreTableOptions& options);

  /// The digest this table was built with (for image validation).
  const std::string& digest_string() const { return digest_; }

 private:
  ScoreTable() = default;

  /// Computes the best-successor block of demand `t` into best_ (which must
  /// already span [t * n, (t+1) * n)). The comparisons run on the stored
  /// float scores (identical between build and extend, which is what makes
  /// extend byte-identical).
  void fill_demand_block(const ProfileGraph& graph, std::size_t t);
  /// The body of save_image().
  void write_image(std::ostream& os) const;

  /// An open mmap; shared_ptr so copies of a mapped table stay cheap and
  /// the mapping lives exactly as long as someone serves from it.
  struct Image;

  /// Accessors below serve from the owned vectors or the mapped image.
  const ProfileKey* keys_data() const { return image_ ? img_keys_ : keys_.data(); }
  const float* scores_data() const { return image_ ? img_scores_ : scores_.data(); }
  const BestEntry* best_data() const { return image_ ? img_best_ : best_.data(); }

  ProfileShape shape_{std::vector<DimensionGroup>{DimensionGroup{}}};
  std::size_t node_count_ = 0;
  std::size_t demand_count_ = 0;
  std::vector<ProfileKey> keys_;
  std::vector<float> scores_;
  std::vector<BestEntry> best_;  ///< demand-major: [demand * node_count_ + node]
  std::string digest_;
  int iterations_ = 0;
  bool converged_ = false;

  // Mapped-image state (null/empty for owned tables).
  std::shared_ptr<const Image> image_;
  const ProfileKey* img_keys_ = nullptr;
  const float* img_scores_ = nullptr;
  const BestEntry* img_best_ = nullptr;
};

}  // namespace prvm
