// Score tables for every PM type of a catalog, with on-disk caching.
//
// Building the tables of ec2_sim_catalog() takes about 0.35 s on a 4-vCPU
// Xeon KVM guest (0.8 s on one CPU); the paper notes the Profile-PageRank
// table "is relatively stable during a certain period of time", so we
// persist each table keyed by a digest of (shape, demand set, PageRank
// options) and reload on subsequent runs.
#pragma once

#include <filesystem>
#include <optional>
#include <vector>

#include "cluster/catalog.hpp"
#include "core/score_table.hpp"

namespace prvm {

struct ScoreImageReport;

/// One ScoreTable per PM type plus the (PM type, VM type) -> table-demand-
/// slot mapping (VM types that never fit a PM type have no slot there).
class ScoreTableSet {
 public:
  const ScoreTable& table(std::size_t pm_type) const { return tables_.at(pm_type); }
  std::size_t pm_type_count() const { return tables_.size(); }

  /// The demand index within table(pm_type) for VM type `vm_type`, or
  /// nullopt when the VM type cannot fit that PM type at all.
  std::optional<std::size_t> demand_slot(std::size_t pm_type, std::size_t vm_type) const;

 private:
  friend ScoreTableSet build_score_tables(const Catalog&, const ScoreTableOptions&,
                                          const std::optional<std::filesystem::path>&);
  friend ScoreTableSet mapped_score_tables(const Catalog&, const std::filesystem::path&,
                                           const ScoreTableOptions&, ScoreImageReport*,
                                           const std::optional<std::filesystem::path>&);
  friend class IncrementalScoreTables;
  std::vector<ScoreTable> tables_;
  std::vector<std::vector<std::optional<std::size_t>>> slots_;  // [pm][vm]
};

/// Incremental score-table maintenance across catalog growth.
///
/// Holds each PM type's ProfileGraph alive alongside its ScoreTable so that
/// appending VM types to the catalog extends both in place instead of
/// rebuilding from scratch: the graph BFS runs only over the new frontier
/// (ProfileGraph::extend), and when the new VM types reach no new profile,
/// the table reuses its PageRank scores verbatim and computes just the new
/// demand blocks (ScoreTable::extend's fast path, O(nodes x new demands)).
/// Either way the resulting tables are byte-identical to a from-scratch
/// build over the grown catalog — asserted by the differential suite.
class IncrementalScoreTables {
 public:
  explicit IncrementalScoreTables(const Catalog& catalog, const ScoreTableOptions& options = {});

  struct ExtendReport {
    std::size_t fast_extends = 0;   ///< PM types whose graph did not change
    std::size_t graph_extends = 0;  ///< PM types whose graph grew (scores rebuilt)
    std::size_t unchanged = 0;      ///< PM types that gained no fitting VM type
    std::size_t new_nodes = 0;      ///< profile-graph nodes added, all PM types
    std::size_t new_edges = 0;
  };

  /// Extends to `catalog`, which must have the same PM types and a VM-type
  /// list of which the current one is a prefix (new types appended).
  ExtendReport extend_to(const Catalog& catalog, const ProfileGraphOptions& graph_options = {});

  const ScoreTableSet& set() const { return set_; }
  const ProfileGraph& graph(std::size_t pm_type) const { return graphs_.at(pm_type); }

 private:
  void rebuild_slots(const Catalog& catalog);

  ScoreTableOptions options_;
  std::vector<ProfileGraph> graphs_;  // one per PM type
  ScoreTableSet set_;
};

/// Directory used for score-table caching: $PRVM_CACHE_DIR if set, else
/// ".prvm-cache" under the current directory.
std::filesystem::path default_cache_dir();

/// Builds (or loads from cache) the score tables of every PM type in the
/// catalog. Pass std::nullopt as cache_dir to disable caching.
ScoreTableSet build_score_tables(
    const Catalog& catalog, const ScoreTableOptions& options = {},
    const std::optional<std::filesystem::path>& cache_dir = default_cache_dir());

/// What mapped_score_tables actually did, for the daemon's startup line.
struct ScoreImageReport {
  std::size_t mapped = 0;    ///< tables served from a pre-existing image
  std::size_t written = 0;   ///< images written this run, then mapped
  std::size_t fallback = 0;  ///< tables served from private memory (image IO failed)
};

/// Score tables served from read-only mmap images under `image_dir`
/// (one `scoretable-<digest>.img` per PM type). Existing images are mapped
/// MAP_SHARED, so N cell processes of one host share a single physical copy
/// of each table; missing images are loaded from the binary cache under
/// `cache_dir` when it holds them (the cache is read, never written) or
/// built, then written and mapped back. Image IO failure falls back to the
/// in-memory table — the daemon keeps booting, just without page sharing.
/// Metrics as build_score_tables records them; a mapped image counts as a
/// cache hit and its mapping time as a load.
ScoreTableSet mapped_score_tables(
    const Catalog& catalog, const std::filesystem::path& image_dir,
    const ScoreTableOptions& options = {}, ScoreImageReport* report = nullptr,
    const std::optional<std::filesystem::path>& cache_dir = default_cache_dir());

}  // namespace prvm
