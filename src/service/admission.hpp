// Request admission for the placement daemon.
//
// Two responsibilities on top of the Datacenter's per-VM anti-collocation
// (which forbids two items of ONE VM on one physical dimension):
//
//  1. Inter-VM anti-collocation groups (operator anti-affinity): VMs placed
//     with the same "group" tag must land on pairwise-distinct PMs. The
//     controller tracks which PMs host each group's members and vetoes them
//     through PlacementConstraints, the same hook migration uses.
//  2. Structured rejection: every reason a request can be refused is an
//     enum the protocol layer serializes verbatim, so clients can react
//     (retry, resize, back off) without parsing prose.
//
// The controller's state is part of the durable service state: it is
// serialized into snapshots and rebuilt by WAL replay, so group guarantees
// survive a crash.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/datacenter.hpp"
#include "placement/algorithm.hpp"

namespace prvm {

/// Upper bound on a group name (sanity check when loading snapshots).
inline constexpr std::size_t kMaxGroupName = 4096;

enum class RejectReason {
  kNone,
  kUnknownVmType,  ///< type name/index not in the catalog
  kDuplicateVm,    ///< vm id is already placed
  kUnknownVm,      ///< release/migrate of a vm id that is not placed
  kGroupConflict,  ///< anti-collocation group vetoes every feasible PM
  kNoCapacity,     ///< no PM can host the VM at all
  kQueueFull,        ///< request queue at capacity (backpressure)
  kDraining,         ///< daemon is shutting down / drained
  kDegradedStorage,  ///< WAL/snapshot storage failing; writes are suspended
  kNotLeader,        ///< mutation sent to a follower replica
  kNotFollower,      ///< repl/promote op sent to a node that is not a follower
  kNotReplicated,    ///< ack_after_replicated quorum not reached in time
};

/// Number of RejectReason values (metrics arrays are indexed by reason).
inline constexpr std::size_t kRejectReasonCount = 12;

/// Machine-readable wire code ("no_capacity", "group_conflict", ...).
const char* to_string(RejectReason reason);

class AdmissionController {
 public:
  /// Registers intent to place `vm` in `group` (empty = no group) and
  /// returns the constraints a placement must honor. Call
  /// record_placement() once the engine committed the placement.
  PlacementConstraints constraints_for(const std::string& group) const;

  void record_placement(VmId vm, const std::string& group, PmIndex pm);

  /// Removes `vm` from its group (no-op for ungrouped VMs). `pm` must be
  /// the PM it was recorded on.
  void record_release(VmId vm, PmIndex pm);

  /// The group of a placed VM; empty when ungrouped / unknown.
  const std::string& group_of(VmId vm) const;

  std::size_t grouped_vm_count() const { return group_of_vm_.size(); }

  /// Snapshot persistence (counted text block, embedded in the service
  /// snapshot between the header and the datacenter blob).
  void serialize(ByteWriter& out) const;
  static AdmissionController deserialize(std::istream& is);

  /// Deep equality (test hook for recovery differential tests).
  bool state_equal(const AdmissionController& other) const;

 private:
  struct Group {
    std::string name;
    /// PM -> number of group members hosted there. With the veto active the
    /// count is always 1, but the map stays correct even if constraints are
    /// bypassed (e.g. WAL replay of a historic decision).
    std::unordered_map<PmIndex, std::size_t> pms;
  };

  std::uint32_t group_id(const std::string& name);

  std::vector<Group> groups_;
  std::unordered_map<std::string, std::uint32_t> group_ids_;
  std::unordered_map<VmId, std::uint32_t> group_of_vm_;
};

}  // namespace prvm
