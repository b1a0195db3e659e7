#include "cells/embedded.hpp"

#include "common/check.hpp"

namespace prvm {

EmbeddedCells::EmbeddedCells(const Catalog& catalog,
                             const std::vector<std::size_t>& fleet,
                             std::shared_ptr<const ScoreTableSet> tables,
                             EmbeddedCellsConfig config) {
  PRVM_REQUIRE(config.cells > 0, "need at least one cell");
  PRVM_REQUIRE(fleet.size() >= config.cells,
               "fewer PMs than cells: every cell needs a non-empty fleet");
  const auto slices = split_fleet(fleet, config.cells);
  cells_.reserve(config.cells);
  for (std::size_t k = 0; k < config.cells; ++k) {
    ServiceConfig cell_config = config.service;
    cell_config.cell_id = k;
    if (config.data_dir.empty()) {
      cell_config.data_dir.clear();
    } else {
      cell_config.data_dir = config.data_dir / ("cell-" + std::to_string(k));
      std::filesystem::create_directories(cell_config.data_dir);
    }
    cells_.push_back(std::make_unique<PlacementService>(catalog, slices[k],
                                                        tables, cell_config));
  }
}

void EmbeddedCells::start() {
  for (auto& cell : cells_) cell->start();
}

void EmbeddedCells::drain() {
  for (auto& cell : cells_) cell->drain();
}

void EmbeddedCells::stop_now() {
  for (auto& cell : cells_) cell->stop_now();
}

std::vector<RequestSink*> EmbeddedCells::sinks() {
  std::vector<RequestSink*> sinks;
  sinks.reserve(cells_.size());
  for (auto& cell : cells_) sinks.push_back(cell.get());
  return sinks;
}

}  // namespace prvm
