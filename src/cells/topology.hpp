// Cell topology: how VMs and PMs map onto placement cells.
//
// A cell is an independent PlacementService (engine + WAL + snapshot) over
// a disjoint slice of the PM fleet. The router needs one pure, stable
// function — which cell first tries a VM — plus a deterministic way to
// carve one fleet spec into per-cell slices. Both live here so the router,
// the tools and the sharded-vs-single differential tests agree
// byte-for-byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace prvm {

/// SplitMix64 finalizer — a cheap, well-mixed integer hash. VM ids arrive
/// as dense ranges (loadgen hands out sequential ids per connection), so
/// the identity would pin whole bands to one cell; the finalizer spreads
/// them uniformly.
std::uint64_t mix64(std::uint64_t x);

/// The cell that first attempts placement of `vm` (spillover may move it).
std::size_t cell_of_vm(std::uint64_t vm, std::size_t cells);

/// Splits a fleet spec (per-PM type indices, the shape mixed_pm_fleet
/// returns) into `cells` slices round-robin, so every cell keeps the same
/// PM-type mix and capacity skew stays within one PM of even. The
/// concatenation of the slices in cell order is a permutation of `fleet`.
std::vector<std::vector<std::size_t>> split_fleet(const std::vector<std::size_t>& fleet,
                                                  std::size_t cells);

}  // namespace prvm
