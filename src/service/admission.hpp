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
// survive a crash. Only live groups are kept: a group exists while it has a
// member, its last release frees it, and a later place under the same name
// starts it afresh. A group without members vetoes nothing, so dropping it
// changes no placement, and the controller's memory and its snapshot block
// are bounded by the grouped VMs placed now, not by every name ever seen.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/datacenter.hpp"
#include "common/flat_map.hpp"
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
  /// The constraints a placement in `group` (empty = no group) must honor:
  /// a veto on every PM that hosts a member. The veto reads the group's
  /// live PM set by pointer, so it is valid until the next record_*() call;
  /// call the engine first, then record_placement() once it committed.
  PlacementConstraints constraints_for(const std::string& group) const;

  void record_placement(VmId vm, const std::string& group, PmIndex pm);

  /// Removes `vm` from its group (no-op for ungrouped VMs). `pm` must be
  /// the PM it was recorded on. The group's last release frees the group,
  /// so a reference from group_of() may dangle afterwards.
  void record_release(VmId vm, PmIndex pm);

  /// The group of a placed VM; empty when ungrouped / unknown.
  const std::string& group_of(VmId vm) const;

  std::size_t grouped_vm_count() const { return group_of_vm_.size(); }
  /// Live groups: every one has at least one member.
  std::size_t group_count() const { return group_ids_.size(); }

  /// Snapshot persistence (counted text block, embedded in the service
  /// snapshot between the header and the datacenter blob). The block lists
  /// the live groups in name-byte order and each VM's group by its rank in
  /// that order, so its bytes depend only on the live state, not on the
  /// order groups were created in.
  void serialize(ByteWriter& out) const;
  static AdmissionController deserialize(std::istream& is);

  /// Equality of the live state: the same groups, each with the same PM
  /// multiset, and the same VM -> group map (test hook for recovery
  /// differential tests).
  bool state_equal(const AdmissionController& other) const;

 private:
  /// A PM hosting group members, and how many.
  struct PmCount {
    std::uint32_t pm = 0;
    std::uint32_t count = 0;
    bool operator==(const PmCount&) const = default;
  };

  struct Group {
    std::string name;
    /// The PMs hosting members, sorted by PM. With the veto active every
    /// count is 1, but the set stays correct even if constraints are
    /// bypassed (e.g. WAL replay of a historic decision). Groups are small,
    /// so a sorted array is the smallest set and the snapshot writes it as
    /// it stands.
    std::vector<PmCount> pms;
  };

  /// The slot of the live group `name`, created (in a free slot if there is
  /// one) when absent.
  std::uint32_t group_id(const std::string& name);
  /// Frees an empty group: its name entry, its PM storage and its slot.
  void drop_group(std::uint32_t id);
  /// No group: what find_group() and group_of_vm_ answer for an absent key.
  static constexpr std::uint32_t kNoGroup = FlatIdMap::kNone;
  static_assert(RecordIndex<std::string_view, NameHash>::kNone == kNoGroup);

  /// The key group_ids_ reads back from a slot: the group's name.
  auto group_name() const {
    return [this](std::uint32_t id) { return std::string_view(groups_[id].name); };
  }
  /// The slot of the live group `name`, or kNoGroup.
  std::uint32_t find_group(std::string_view name) const {
    return group_ids_.find(name, group_name());
  }

  std::vector<Group> groups_;               ///< by slot; free slots are empty
  std::vector<std::uint32_t> free_slots_;   ///< reused before groups_ grows
  RecordIndex<std::string_view, NameHash> group_ids_;  ///< live name -> slot
  FlatIdMap group_of_vm_;                   ///< VM id -> slot
};

}  // namespace prvm
