// Embedded multi-cell deployment: N PlacementServices in one process.
//
// Each cell is a full, independent service — its own engine, WAL and
// snapshots under `<data_dir>/cell-<k>/`, its own worker/flusher threads,
// its own metrics registry — over a disjoint round-robin slice of the PM
// fleet (split_fleet, so every cell keeps the catalog's PM-type mix). The
// Router addresses them as RequestSinks exactly like remote socket cells,
// which is what lets the sharded-vs-single differential tests and the
// multi-cell benchmark run without sockets.
#pragma once

#include <filesystem>
#include <memory>
#include <vector>

#include "cells/topology.hpp"
#include "service/service.hpp"

namespace prvm {

struct EmbeddedCellsConfig {
  std::size_t cells = 2;
  /// Durability root; each cell logs under `<data_dir>/cell-<k>/`. Empty =
  /// ephemeral cells (no WAL, no snapshots).
  std::filesystem::path data_dir;
  /// Per-cell service template. `data_dir`, `cell_id` are overwritten per
  /// cell; leave `metrics` null for private per-cell registries (sharing
  /// one registry would silently merge same-named counters across cells).
  ServiceConfig service;
};

class EmbeddedCells {
 public:
  /// Splits `fleet` round-robin into `config.cells` slices and builds one
  /// PlacementService per slice. Cells with persisted state under their
  /// directory recover it (per-cell recovery, same rules as standalone).
  EmbeddedCells(const Catalog& catalog, const std::vector<std::size_t>& fleet,
                std::shared_ptr<const ScoreTableSet> tables,
                EmbeddedCellsConfig config);

  EmbeddedCells(const EmbeddedCells&) = delete;
  EmbeddedCells& operator=(const EmbeddedCells&) = delete;

  void start();     ///< starts every cell's worker
  void drain();     ///< graceful drain of every cell (final snapshots)
  void stop_now();  ///< hard stop of every cell (recovery-test crash)

  std::size_t size() const { return cells_.size(); }
  PlacementService& cell(std::size_t i) { return *cells_.at(i); }

  /// The cells as router targets (non-owning; valid for this object's life).
  std::vector<RequestSink*> sinks();

 private:
  std::vector<std::unique_ptr<PlacementService>> cells_;
};

}  // namespace prvm
