// Score tables for every PM type of a catalog, persisted as mmap images.
//
// Building the tables of ec2_sim_catalog() takes about 0.35 s on a 4-vCPU
// Xeon KVM guest (0.8 s on one CPU); the paper notes the Profile-PageRank
// table "is relatively stable during a certain period of time", so we
// persist each table as a read-only image keyed by a digest of (shape,
// demand set, PageRank options) and map it on subsequent runs.
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
                                          const std::optional<std::filesystem::path>&,
                                          ScoreImageReport*);
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
/// the table reuses its PageRank scores verbatim and only appends the new
/// demands (ScoreTable::extend's fast path).
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

/// Default directory of the score-table images (and of the experiment
/// harness's result cache): $PRVM_CACHE_DIR if set, else ".prvm-cache"
/// under the current directory.
std::filesystem::path default_cache_dir();

/// What build_score_tables did with an image directory, for the daemon's
/// startup line.
struct ScoreImageReport {
  std::size_t mapped = 0;    ///< tables served from a pre-existing image
  std::size_t written = 0;   ///< images written this run, then mapped
  std::size_t fallback = 0;  ///< tables served from private memory (image IO failed)
};

/// The score tables of every PM type in the catalog. With `dir` unset they
/// are built in memory. Given a directory, each table is served from the
/// read-only image `<dir>/scoretable-<digest>.img` (ScoreTable::map_image)
/// when that image is valid; otherwise it is built, published there with
/// save_image and mapped back, so N cell processes of one host share a
/// single physical copy. Image IO failure serves the built table instead:
/// the daemon keeps booting, just without page sharing. A build counts as a
/// cache miss and its time as a build, a mapped image as a hit and its
/// mapping time as a load (global registry).
ScoreTableSet build_score_tables(
    const Catalog& catalog, const ScoreTableOptions& options = {},
    const std::optional<std::filesystem::path>& dir = default_cache_dir(),
    ScoreImageReport* report = nullptr);

}  // namespace prvm
