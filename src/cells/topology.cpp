#include "cells/topology.hpp"

#include "common/check.hpp"

namespace prvm {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::size_t cell_of_vm(std::uint64_t vm, std::size_t cells) {
  PRVM_CHECK(cells > 0, "cell count must be positive");
  return static_cast<std::size_t>(mix64(vm) % cells);
}

std::vector<std::vector<std::size_t>> split_fleet(const std::vector<std::size_t>& fleet,
                                                  std::size_t cells) {
  PRVM_CHECK(cells > 0, "cell count must be positive");
  std::vector<std::vector<std::size_t>> slices(cells);
  for (auto& slice : slices) slice.reserve(fleet.size() / cells + 1);
  // mixed_pm_fleet interleaves PM types, so round-robin dealing preserves
  // the type mix per slice instead of handing cell 0 all of one type.
  for (std::size_t i = 0; i < fleet.size(); ++i) slices[i % cells].push_back(fleet[i]);
  return slices;
}

}  // namespace prvm
