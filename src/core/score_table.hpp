// The Profile → PageRank-score table (paper §V-B), and Algorithm 2's inner
// step on top of it: the best profile one placement can reach.
//
// Build pipeline: profile graph -> Algorithm 1 PageRank -> BPRU discount ->
// optional normalization to the table maximum (so scores from differently
// sized graphs — M3 vs C3 PMs — are comparable).
//
// The table stores one float score per node and its key split at bit 32.
// Nodes are numbered in ascending key order (ProfileGraph's canonical
// numbering), so the keys are their own index. The EC2 tables' keys fit in
// 41 bits and their upper words take a few dozen values, so the table keeps
// each distinct upper word once, with the first node of its run (a
// segment), and one 4-byte low word per node: node_of binary-searches the
// upper words and then the segment's low words, and key_of finds a node's
// segment by its start. The best successor of a (profile, VM type) is not
// stored: best_after_node enumerates the profile's successor keys under that
// VM type, looks each one up, and keeps the first with the highest score.
// That costs about 8 µs for one EC2 profile's six VM types, and a placement
// engine pays it once per live profile it sees: PageRankVm memoizes the
// answers per engine, and a churn run sees a few thousand of the EC2
// tables' 131k profiles.
//
// The table is self-contained after build (the graph can be discarded). A
// built table and a mapped one hold the same four arrays and serve them
// through the same code. It persists in one form, save_image()/map_image():
// a page-aligned read-only image mapped with mmap, so N cell processes of
// one host share one physical copy (building the EC2-scale tables takes
// about 0.35 s on 4 CPUs, and the paper notes the table "is relatively
// stable during a certain period of time"). extend() grows an existing table in place when
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
/// histogram (expand, intern and canonicalize by ProfileGraph, the next two
/// by ScoreTable::build, image_write by build_score_tables).
inline constexpr std::string_view kScoreTableBuildStages[] = {
    "expand", "intern", "canonicalize", "pagerank", "bpru", "image_write"};

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
  /// best_successor's answer when the VM type does not fit.
  static constexpr NodeId kNoFit = static_cast<NodeId>(-1);

  /// Builds the table from a freshly constructed profile graph.
  static ScoreTable build(const ProfileGraph& graph, const ScoreTableOptions& options = {});

  /// Extends `base` to cover `graph`'s (longer) demand list; `base` must
  /// have been built over the same shape with a prefix of graph's demands.
  /// When `graph_changed` is false (ProfileGraph::extend reported no new
  /// node or edge) the result shares base's keys and scores (a mapped
  /// base's mapping too) and takes the new demands — no PageRank rebuild.
  /// Either way the result is byte-identical to build(graph, options), which
  /// the differential suite asserts.
  static ScoreTable extend(const ScoreTable& base, const ProfileGraph& graph,
                           bool graph_changed, const ScoreTableOptions& options = {});

  const ProfileShape& shape() const { return shape_; }
  std::size_t size() const { return node_count_; }
  std::size_t demand_count() const { return demands_.size(); }
  const std::vector<QuantizedDemand>& demands() const { return demands_; }

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
  /// nullopt if the VM does not fit. Computed on every call (best_successor).
  std::optional<Best> best_after(ProfileKey current, std::size_t demand_index) const;

  /// Node id of a canonical profile, if present: a binary search over the
  /// upper key words, then one over the low words of that upper word's
  /// segment. Node-keyed accessors below let hot paths resolve the key once
  /// and reuse the id.
  std::optional<NodeId> node_of(ProfileKey key) const;
  /// The key of a node: its segment's upper word (found by the segment
  /// starts) above its own low word.
  ProfileKey key_of(NodeId node) const;
  float node_score(NodeId node) const { return scores_[node]; }
  std::optional<Best> best_after_node(NodeId node, std::size_t demand_index) const;

  /// The raw form of best_after_node: the node of the best profile reachable
  /// by placing VM type `demand_index` on `node`, or kNoFit. It walks
  /// enumerate_successor_keys' order, looks each successor up with node_of
  /// and keeps the first strictly greater float score, so ties go to the
  /// first enumerated successor. `scratch` holds the successor keys; a
  /// caller that reuses it allocates nothing once it has grown.
  NodeId best_successor(NodeId node, std::size_t demand_index,
                        std::vector<ProfileKey>& scratch) const;

  /// Diagnostics from the build.
  int pagerank_iterations() const { return iterations_; }
  bool pagerank_converged() const { return converged_; }

  /// Read-only image persistence: save_image() writes the four arrays
  /// (upper words, segment starts, low words, scores) into one page-aligned
  /// file that embeds a digest of (shape, options,
  /// demand fingerprint) for the caller to check; map_image() mmaps it
  /// MAP_SHARED|PROT_READ and serves every accessor straight from the
  /// mapping — multiple processes mapping the same file share one physical
  /// copy of the table. The image does not hold the demand list: map_image
  /// takes it from the caller, and the embedded digest, which covers it,
  /// tells the caller whether the two belong together. The mapping is held
  /// by the returned table (and any copies of it) until the last one dies.
  /// map_image() throws on a missing file, a file of another format
  /// version, a truncated file, a demand list of another length than the
  /// table's or invalid for its shape, or keys that are not strictly
  /// ascending (the binary searches would return wrong nodes): upper words
  /// out of order, segment starts that do not rise from 0 to the node count,
  /// or low words out of order within a segment.
  void save_image(const std::filesystem::path& path) const;
  static ScoreTable map_image(const std::filesystem::path& path,
                              std::vector<QuantizedDemand> demands);

  /// True when the table is served from a map_image() mapping.
  bool is_mapped() const { return mapped_; }

  /// Digest string identifying (shape, demands, options); doubles as the
  /// image-file naming scheme. Computable without building the graph.
  static std::string digest(const ProfileShape& shape,
                            const std::vector<QuantizedDemand>& demands,
                            const ScoreTableOptions& options);

  /// The digest this table was built with (for image validation).
  const std::string& digest_string() const { return digest_; }

 private:
  ScoreTable() = default;

  /// The body of save_image().
  void write_image(std::ostream& os) const;

  /// An open mmap, or the arrays of a built table; either one is immutable
  /// and held through storage_, so copies of a table share it and it lives
  /// exactly as long as someone serves from it.
  struct Image;
  struct Columns;

  /// Splits ascending `keys` into the segment arrays and takes `scores`,
  /// into fresh storage.
  void set_columns(std::span<const ProfileKey> keys, std::vector<float> scores);

  ProfileShape shape_{std::vector<DimensionGroup>{DimensionGroup{}}};
  std::size_t node_count_ = 0;
  std::size_t segment_count_ = 0;
  std::vector<QuantizedDemand> demands_;
  std::string digest_;
  int iterations_ = 0;
  bool converged_ = false;
  bool mapped_ = false;

  std::shared_ptr<const void> storage_;
  const std::uint32_t* uppers_ = nullptr;  ///< segment_count_ upper key words, ascending
  const std::uint32_t* starts_ = nullptr;  ///< segment_count_ + 1 first nodes, then node_count_
  const std::uint32_t* lows_ = nullptr;    ///< node_count_ low key words
  const float* scores_ = nullptr;          ///< node_count_ scores
};

}  // namespace prvm
