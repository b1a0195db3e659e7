// Home-cell registry for anti-collocation groups that span placement cells.
//
// Each cell owns a disjoint slice of the PM fleet, so the per-cell
// AdmissionController veto sets are already globally correct: a group
// member placed in cell A can never collide with a PM of cell B. What
// sharding *does* break is single-writer admission of the group itself —
// two concurrent placements of one VM id (router retries, spillover races)
// could land in different cells, and a crash between "placed in cell A"
// and "recorded as a member" would leak membership. The GroupDirectory
// closes both holes: every spanning-group placement runs a two-phase
// reserve/commit against the group's home cell (cell_of_group hash), and
// the home cell WALs each transition so recovery replays the directory
// bit-identically (DESIGN.md §7).
//
// State machine per (group, vm):
//
//   absent --reserve--> pending(token, deadline) --commit--> committed(cell)
//     ^                     |                                    |
//     +------abort----------+------------------abort------------+
//
// Reservations carry an absolute deadline; expiry is LAZY and pure — an
// expired pending entry is treated as absent by try_reserve (and
// overwritten via a fresh WAL'd reserve), never silently dropped, so
// replaying the same WAL yields the same directory regardless of when
// recovery runs.
//
// Decision vs application are split exactly like the service's other
// mutations: the service calls try_reserve() at live time, WALs the
// outcome on success, then applies apply_reserve() unconditionally —
// replay re-runs only the apply_* half, which is deterministic.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "service/admission.hpp"

namespace prvm {

class GroupDirectory {
 public:
  enum class MemberState : std::uint8_t { kPending = 1, kCommitted = 2 };

  struct Member {
    MemberState state = MemberState::kPending;
    std::uint64_t cell = 0;         ///< owning cell once committed
    std::uint64_t token = 0;        ///< op_seq of the reserving WAL record
    std::uint64_t deadline_ms = 0;  ///< pending only: absolute expiry
  };

  /// Decision half of reserve: kNone when a fresh reservation may be
  /// recorded (absent member, or pending past its deadline), kDuplicateVm
  /// when the vm is already live in this group (committed, or pending and
  /// unexpired). Const — call apply_reserve() after WALing the outcome.
  RejectReason try_reserve(const std::string& group, std::uint64_t vm,
                           std::uint64_t now_ms) const;

  /// Decision half of commit: kNone unless the vm is already committed to a
  /// DIFFERENT cell (a protocol violation the router never produces, but a
  /// crashed-and-retried saga could — surfaced as duplicate_vm).
  RejectReason try_commit(const std::string& group, std::uint64_t vm, std::uint64_t cell) const;

  /// Application half (also the WAL-replay entry points). Idempotent and
  /// unconditional: reserve upserts a pending member, commit upserts a
  /// committed member, abort erases in any state.
  void apply_reserve(const std::string& group, std::uint64_t vm, std::uint64_t token,
                     std::uint64_t deadline_ms);
  void apply_commit(const std::string& group, std::uint64_t vm, std::uint64_t cell);
  void apply_abort(const std::string& group, std::uint64_t vm);

  /// The member record, or nullptr when absent. Expired pending members are
  /// still returned (expiry is the *reserve* path's concern).
  const Member* member(const std::string& group, std::uint64_t vm) const;

  std::size_t member_count() const;          ///< all states, all groups
  std::size_t pending_count() const;         ///< pending members across groups
  std::size_t group_count() const { return groups_.size(); }

  /// Snapshot persistence (counted text block, same shape as the admission
  /// controller's; embedded in PRVMSNAP2 snapshots).
  void serialize(ByteWriter& out) const;
  static GroupDirectory deserialize(std::istream& is);

  /// Deep equality — the differential oracle of the mid-reserve crash test.
  bool state_equal(const GroupDirectory& other) const;

 private:
  // Ordered maps keep serialization deterministic without a sort pass;
  // directory sizes are small (one entry per live spanning-group member).
  std::map<std::string, std::map<std::uint64_t, Member>> groups_;
};

}  // namespace prvm
